"""Words over the standard generating sets of F, T and V.

Grammar: tokens separated by whitespace or '*'; each token is a
generator name with an optional integer exponent, e.g. ``x0 x1^-2``.
An uppercase name is shorthand for the inverse (``X0`` is ``x0^-1``).
Powers expand eagerly into letter sequences; the rewriting engine
absorbs any redundancy this introduces.

Generator conventions (fixed here, validated downstream by the exact
prefix-map oracle):

    x0 : domain {00,01,1} -> range {0,10,11}, order-preserving
    x1 : domain {0,100,101,11} -> range {0,10,110,111}, order-preserving
    c  : domain {00,01,1} -> range {0,10,11}, leaves rotated by 2
    pi0: domain {00,01,1} -> itself, first two leaves transposed

In T, ``c`` is realized cylindrically: the two strands that wrap around
the cylinder carry wrap count 1.

The builders read each letter once as a small integer code, 2i for
generator i of ``GENERATOR_PAIRS`` and 2i + 1 for its inverse, so the
inverse of code c is c ^ 1.  Free and cyclic reduction run on the codes;
``reduced_diagram`` and ``core_diagram`` splice one precomputed template
per block of codes and reduce each seam as it is made (``_seams``).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from .diagram import (
    DEAD,
    MERGE,
    SPLIT,
    TYPE_I,
    TYPE_II,
    StrandDiagram,
    from_tree_pair,
    identity_diagram,
    invert,
    sink_code,
)
from .errors import AlphabetError, ParseError
from .trees import TreePair, tree_from_antichain


GROUPS = ("F", "T", "V")

ALPHABETS = {
    "F": ("x0", "x1"),
    "T": ("x0", "x1", "c"),
    "V": ("x0", "x1", "c", "pi0"),
}

GENERATOR_PAIRS = {
    "x0": TreePair(
        tree_from_antichain(["00", "01", "1"]),
        tree_from_antichain(["0", "10", "11"]),
        (0, 1, 2),
    ),
    "x1": TreePair(
        tree_from_antichain(["0", "100", "101", "11"]),
        tree_from_antichain(["0", "10", "110", "111"]),
        (0, 1, 2, 3),
    ),
    "c": TreePair(
        tree_from_antichain(["00", "01", "1"]),
        tree_from_antichain(["0", "10", "11"]),
        (2, 0, 1),
    ),
    "pi0": TreePair(
        tree_from_antichain(["00", "01", "1"]),
        tree_from_antichain(["00", "01", "1"]),
        (1, 0, 2),
    ),
}


class Generator(NamedTuple):
    symbol: str
    sign: int  # +1 or -1

    def inverse(self) -> "Generator":
        return Generator(self.symbol, -self.sign)


@dataclass(frozen=True)
class Word:
    group: str
    letters: tuple[Generator, ...]

    def __post_init__(self):
        if self.group not in GROUPS:
            raise AlphabetError(f"unknown group {self.group!r}")
        alpha = ALPHABETS[self.group]
        if not {g.symbol for g in set(self.letters)} <= set(alpha):
            g = next(g for g in self.letters if g.symbol not in alpha)
            raise AlphabetError(f"generator {g.symbol!r} is illegal in {self.group}")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.group != self.group:
            raise AlphabetError("cannot concatenate words over different groups")
        return Word(self.group, self.letters + other.letters)

    def inverse(self) -> "Word":
        inv = {g: g.inverse() for g in set(self.letters)}
        return Word(self.group, tuple(map(inv.__getitem__, reversed(self.letters))))


def word(group: str, *letters) -> Word:
    """Convenience constructor from (symbol, sign) pairs or symbols."""
    return Word(group, tuple(Generator(x, 1) if isinstance(x, str) else Generator(*x) for x in letters))


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(\^(-?\d+))?$")


def parse_word(text: str, group: str = "F") -> Word:
    """Parse the word grammar; see module docstring.  Each distinct token
    is validated once, at its first occurrence, and its letters reused."""
    if group not in GROUPS:
        raise AlphabetError(f"unknown group {group!r}")
    tokens = text.replace("*", " ").split()  # str.isspace() is re's \s
    letters = {}
    for raw in dict.fromkeys(tokens):  # distinct tokens in text order
        m = _TOKEN.match(raw)
        if not m:
            raise ParseError(_offset(text, raw), f"bad token {raw!r}")
        name, _, exp = m.groups()
        sign = 1
        if not name.islower():
            sign = -1
            name = name.lower()
        if name not in GENERATOR_PAIRS:
            raise ParseError(_offset(text, raw), f"unknown generator {raw!r}")
        if name not in ALPHABETS[group]:
            raise AlphabetError(f"generator {name!r} is illegal in {group}")
        # a repeat count must fit an index; int() refuses over 4300 digits
        if exp is not None and (len(exp.lstrip("-0")) > 19 or abs(int(exp)) > sys.maxsize):
            raise ParseError(_offset(text, raw), f"exponent of {raw!r} is too large")
        count = 1 if exp is None else int(exp)
        total = sign * count
        letters[raw] = (Generator(name, 1 if total > 0 else -1),) * abs(total)
    return Word(group, tuple(chain.from_iterable(map(letters.__getitem__, tokens))))


def _offset(text: str, raw: str) -> int:
    """Where token ``raw`` first occurs in ``text``."""
    return next(m.start() for m in re.finditer(r"[^\s*]+", text) if m[0] == raw)


def word_to_text(w: Word) -> str:
    """Round-trip printer emitting the parse grammar."""
    return " ".join(g.symbol if g.sign > 0 else f"{g.symbol}^-1" for g in w.letters)


def generator_diagram(g: Generator, group: str = "F") -> StrandDiagram:
    """The glued tree-pair diagram of a standard generator."""
    if g.symbol not in ALPHABETS[group]:
        raise AlphabetError(f"generator {g.symbol!r} is illegal in {group}")
    d = from_tree_pair(GENERATOR_PAIRS[g.symbol], cylindrical=(group == "T"))
    if g.sign < 0:
        d = invert(d)
    return d


# -- letter codes (module docstring) -------------------------------------------

_LETTERS = tuple(Generator(s, e) for s in GENERATOR_PAIRS for e in (1, -1))
_CODE = {g: c for c, g in enumerate(_LETTERS)}


# -- linear word builders: one precomputed template per block of letters -------

_BLOCK = {"F": 4, "T": 4, "V": 3}  # letters per block: 4^4 F, 6^4 T, 8^3 V blocks


class _Templates(dict):
    """Code tuple -> (kinds, slots, source head, sink tail, wraps), filled
    on first use from one letter's square (V) or cylindrical (T) diagram,
    or from the diagram that ``_seams`` reduces letter by letter for a
    longer block (no kinds if identity).  No key leaves a sink wrap."""

    def __init__(self, group: str):
        self.group = group

    def __missing__(self, key: tuple[int, ...]):
        if len(key) == 1:
            d = generator_diagram(_LETTERS[key[0]], self.group)
        else:
            d = identity_diagram(cylindrical=self.group == "T")
            _seams(d, zip(key))
        lw = d.long or {}
        tlong = tuple((h, w) for h, w in lw.items() if h >= 0 and w)
        tpl = (bytes(d.kind), tuple(d.conn), d.src_conn[0], d.snk_conn[0], tlong)
        self[key] = tpl
        return tpl


_TEMPLATES = (_Templates("V"), _Templates("T"))  # indexed by "has wrap counts"
SINK = sink_code(0)


def _seams(d: StrandDiagram, keys, trace: list | None = None, reduce: bool = True) -> tuple[int, int]:
    """Splice each key's template between the sink of the (1,1)-diagram
    ``d`` and its tail, the endpoint that fed the sink, and, if ``reduce``,
    fire every move the seam allows; returns (moves, redex tests run).

    The sink edge's wrap count moves onto the template's source edge.  A
    reduced non-identity template starts with a split and ends with a
    merge, so after a splice only the old tail can top a redex.  From it
    the moves run as ``rewrite.cascade`` runs them on any diagram, with
    ``_redex_at`` and ``StrandDiagram.splice`` written out here: the tails
    each move reconnects are tested first in, first out, and ``trace``
    collects the moves as (type, top, bottom).  Dead vertices at the end
    of the arrays are dropped, the rest renumbered once they outnumber the
    live ones, and at the end.  Identity templates are skipped; they carry
    no wrap count, as the keys are freely reduced.

    In an acyclic (1,1)-diagram the source edge enters a split or the
    sink, and the sink edge leaves a merge or the source: every edge
    descends from the one source, so the other input of a merge fed by the
    source would descend from that merge, a cycle; dually at the sink.
    Moves keep diagrams acyclic, so an old tail other than the source is
    a merge's, a type I split's left output is not the sink, and a type
    II move meets neither boundary edge."""
    kind = d.kind
    conn = d.conn
    src_conn = d.src_conn
    snk_conn = d.snk_conn
    long = d.long
    templates = _TEMPLATES[long is not None]
    moves = examined = dead = 0
    for key in keys:
        tk, tconn, x_ep, y_ep, tlong = templates[key]
        if not tk:
            continue
        tail = snk_conn[0]
        off = len(conn)
        kind += tk
        conn += map(off.__add__, tconn)
        x = x_ep + off
        y = y_ep + off
        conn[x] = tail
        conn[y] = SINK
        snk_conn[0] = y
        if long is not None:
            carried = long.pop(SINK, 0)
            for h, w in tlong:
                long[h + off] = w
            if carried:
                long[x] = long.get(x, 0) + carried
        if tail < 0:
            src_conn[0] = x
            continue
        conn[tail] = x
        if not reduce:
            continue
        fired = 0
        queue = [tail // 3]
        for u in queue:
            k = kind[u]
            if k == DEAD:
                continue
            examined += 1
            i = 3 * u
            if k == SPLIT:  # type I: both outputs into one merge, in order
                # in this order the two edges of a square diagram cannot
                # differ in wraps (lifted to the strip they would cross),
                # so _redex_at's wrap test is left out
                x = conn[i + 1]
                if x % 3 or kind[x // 3] != MERGE or conn[i + 2] != x + 1:
                    continue
                a = conn[i]
                e = conn[x + 2]
                if long is not None:
                    w = long.pop(i, 0) + long.pop(x, 0) + long.pop(e, 0)
                    long.pop(x + 1, None)
                    if w:
                        long[e] = w
                if e >= 0:
                    conn[e] = a
                else:
                    snk_conn[0] = a
                if trace is not None:
                    trace.append((TYPE_I, u, x // 3))
                if a >= 0:
                    conn[a] = e
                    queue.append(a // 3)
                else:
                    src_conn[0] = e
            else:  # type II: a merge's output into a split
                x = conn[i + 2]
                if x < 0 or x % 3 or kind[x // 3] != SPLIT:
                    continue
                a = conn[i]
                b = conn[i + 1]
                c = conn[x + 1]
                e = conn[x + 2]
                if long is not None:
                    wm = long.pop(x, 0)
                    wl = long.pop(i, 0) + wm + long.pop(c, 0)
                    wr = long.pop(i + 1, 0) + wm + long.pop(e, 0)
                    if wl:
                        long[c] = wl
                    if wr:
                        long[e] = wr
                conn[c] = a
                conn[e] = b
                if trace is not None:
                    trace.append((TYPE_II, u, x // 3))
                conn[a] = c
                queue.append(a // 3)
                conn[b] = e
                queue.append(b // 3)
            kind[u] = kind[x // 3] = DEAD
            fired += 1
        if fired:
            moves += fired
            dead += 2 * fired
            n = len(kind)
            while n and kind[n - 1] == DEAD:
                n -= 1
            dead -= len(kind) - n
            del kind[n:], conn[3 * n :]
            if 2 * dead > n:
                d.compact()
                dead = 0
    if dead:
        d.compact()
    return moves, examined


def _blocks(codes: list[int], i: int, j: int, k: int):
    """``codes[i:j]`` cut lazily into tuples of k codes, the last one shorter."""
    full = j - (j - i) % k
    return chain(zip(*(islice(codes, i, full),) * k), (tuple(codes[full:j]),) if full < j else ())


def word_to_diagram(w: Word) -> StrandDiagram:
    """Concatenate the generator diagrams of ``w`` left to right.

    No reduction is performed; the result has at most 6 vertices per
    letter.  The empty word gives the identity diagram.
    """
    d = identity_diagram(cylindrical=w.group == "T")
    _seams(d, zip(map(_CODE.__getitem__, w.letters)), reduce=False)
    return d


def reduced_diagram(w: Word, *more: Word, trace: list | None = None) -> StrandDiagram:
    """The reduced diagram of the product ``w * more[0] * ...``, reduced as
    it is built, with vertices 0..n-1.  By confluence it is the diagram of
    ``reduce_diagram(word_to_diagram(...))`` up to vertex ids.

    Without ``trace``, the letters of all the words, joined end to end, are
    freely reduced (``free_reduce``) and spliced already reduced in blocks
    of ``_BLOCK[group]``.  With ``trace`` they are spliced one at a time as
    they stand, and ``trace`` collects as many moves as the two-step path
    fires.  Either way ``_seams`` reduces each seam as it is made.
    """
    for u in more:
        if u.group != w.group:
            raise AlphabetError("cannot concatenate words over different groups")
    codes = map(_CODE.__getitem__, chain(w.letters, *(u.letters for u in more)))
    d = identity_diagram(cylindrical=w.group == "T")
    if trace is not None:
        _seams(d, zip(codes), trace)
    else:
        codes = _free_codes(codes)
        _seams(d, _blocks(codes, 0, len(codes), _BLOCK[w.group]))
    return d


def core_diagram(w: Word) -> StrandDiagram:
    """The reduced diagram of ``cyclic_core(w)``, a conjugate of ``w``, built
    in blocks from the freely reduced letters without copying them."""
    codes, i, j = _core(w.letters)
    d = identity_diagram(cylindrical=w.group == "T")
    _seams(d, _blocks(codes, i, j, _BLOCK[w.group]))
    return d


# -- free and cyclic reduction (Lyndon-Schupp, ch. I.2) ------------------------


def _free_codes(codes) -> list[int]:
    """``codes`` with every adjacent c, c ^ 1 pair cancelled, in one pass
    with a stack."""
    out = [-1]  # no code cancels it
    push = out.append
    pop = out.pop
    for c in codes:
        if out[-1] == c ^ 1:
            pop()
        else:
            push(c)
    del out[0]
    return out


def free_reduce(letters) -> list[Generator]:
    """``letters`` with every adjacent g g^-1 pair cancelled, in one pass
    with a stack.  The result names the same group element."""
    return list(map(_LETTERS.__getitem__, _free_codes(map(_CODE.__getitem__, letters))))


def _core(letters) -> tuple[list[int], int, int]:
    """The codes of the freely reduced ``letters`` and the bounds i, j of
    its cyclic core: ``codes[:i]`` is the inverse of ``codes[j:]``."""
    codes = _free_codes(map(_CODE.__getitem__, letters))
    i, j = 0, len(codes)
    while j - i > 1 and codes[i] == codes[j - 1] ^ 1:
        i += 1
        j -= 1
    return codes, i, j


def cyclic_core(w: Word) -> Word:
    """A freely and cyclically reduced conjugate of ``w``: with p the
    stripped prefix of the freely reduced word, ``w`` equals
    ``p * core * p^-1``."""
    codes, i, j = _core(w.letters)
    return Word(w.group, tuple(map(_LETTERS.__getitem__, codes[i:j])))


def random_word(group: str, length: int, rng) -> Word:
    """Uniform random word over the group alphabet and inverses."""
    alpha = ALPHABETS[group]
    letters = tuple(
        Generator(rng.choice(alpha), rng.choice((1, -1))) for _ in range(length)
    )
    return Word(group, letters)

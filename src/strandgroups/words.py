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
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from .diagram import DEAD, MERGE, StrandDiagram, from_tree_pair, identity_diagram, invert, sink_code
from .errors import AlphabetError, ParseError
from .rewrite import cascade
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
    tokens = re.split(r"[\s*]+", text)
    letters = {"": ()}
    for raw in dict.fromkeys(tokens):  # distinct tokens in text order
        if raw in letters:
            continue
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


# -- linear word builders: one precomputed template per block of letters -------

_BLOCK = {"F": 4, "T": 4, "V": 3}  # letters per block: 4^4 F, 6^4 T, 8^3 V blocks


class _Templates(dict):
    """Letter tuple -> (kinds, slots, source head, sink tail, wraps, sink
    wrap), filled on first use from one letter's square (V) or cylindrical
    (T) diagram, or a longer block's reduced diagram (no kinds if identity)."""

    def __init__(self, group: str):
        self.group = group

    def __missing__(self, key: tuple[Generator, ...]):
        if len(key) == 1:
            d = generator_diagram(key[0], self.group)
        else:
            d = reduced_diagram(Word(self.group, key), trace=[])
        lw = d.long or {}
        tlong = tuple((h, w) for h, w in lw.items() if h >= 0 and w)
        tpl = (bytes(d.kind), tuple(d.conn), d.src_conn[0], d.snk_conn[0], tlong, lw.get(SINK, 0))
        self[key] = tpl
        return tpl


_TEMPLATES = (_Templates("V"), _Templates("T"))  # indexed by "has wrap counts"
SINK = sink_code(0)


def _grow(d: StrandDiagram, keys):
    """Splice each key's template between the sink and its tail, the
    endpoint that fed the sink; yields that tail after each splice.  The
    sink edge's wrap count moves onto the template's source edge; an
    identity block only adds its own wrap count to the sink edge's."""
    kind = d.kind
    conn = d.conn
    snk_conn = d.snk_conn
    long = d.long
    templates = _TEMPLATES[long is not None]
    for key in keys:
        tk, tconn, x_ep, y_ep, tlong, snk_lw = templates[key]
        if not tk:
            if snk_lw:
                long[SINK] = long.get(SINK, 0) + snk_lw
            continue
        tail = snk_conn[0]
        off = len(conn)
        kind.extend(tk)
        conn.extend(map(off.__add__, tconn))
        x = x_ep + off
        y = y_ep + off
        conn[x] = tail
        if tail >= 0:
            conn[tail] = x
        else:
            d.src_conn[0] = x
        conn[y] = SINK
        snk_conn[0] = y
        if long is not None:
            carried = long.pop(SINK, 0)
            for h, wv in tlong:
                long[h + off] = wv
            if carried:
                long[x] = long.get(x, 0) + carried
            if snk_lw:
                long[SINK] = snk_lw
        yield tail


def word_to_diagram(w: Word) -> StrandDiagram:
    """Concatenate the generator diagrams of ``w`` left to right.

    No reduction is performed; the result has at most 6 vertices per
    letter.  The empty word gives the identity diagram.
    """
    d = identity_diagram(cylindrical=w.group == "T")
    for _ in _grow(d, zip(w.letters)):
        pass
    return d


def reduced_diagram(w: Word, *more: Word, trace: list | None = None) -> StrandDiagram:
    """The reduced diagram of the product ``w * more[0] * ...``, reduced as
    it is built, with vertices 0..n-1.  By confluence it is the diagram of
    ``reduce_diagram(word_to_diagram(...))`` up to vertex ids.

    Without ``trace``, the letters of all the words, joined end to end, are
    freely reduced (``free_reduce``) and spliced already reduced in blocks
    of ``_BLOCK[group]``.  With ``trace`` they are spliced one at a time as
    they stand, and ``trace`` collects as many moves as the two-step path
    fires.  A reduced non-identity block starts with a split and ends with
    a merge, so after a splice only the old tail can top a redex;
    ``cascade`` fires it and all it uncovers.  Dead vertices at the end of
    the arrays are dropped, the rest renumbered once they outnumber the
    live ones.
    """
    for u in more:
        if u.group != w.group:
            raise AlphabetError("cannot concatenate words over different groups")
    letters = chain(w.letters, *(u.letters for u in more))
    if trace is None:
        letters = free_reduce(letters)
    return _spliced(w.group, letters, trace)


def core_diagram(w: Word) -> StrandDiagram:
    """The reduced diagram of ``cyclic_core(w)``, a conjugate of ``w``, built
    from the freely reduced letters without copying them."""
    letters, i, j = _core(w)
    return _spliced(w.group, islice(letters, i, j))


def _spliced(group: str, letters, trace: list | None = None) -> StrandDiagram:
    """The reduced diagram of ``letters``, spliced as ``reduced_diagram``
    says: in blocks, or one at a time with ``trace``."""
    letters = iter(letters)
    k = 1 if trace is not None else _BLOCK[group]
    d = identity_diagram(cylindrical=group == "T")
    kind = d.kind
    dead = 0
    for tail in _grow(d, iter(lambda: tuple(islice(letters, k)), ())):
        if tail >= 0 and kind[tail // 3] == MERGE:
            dead += 2 * cascade(d, tail // 3, trace)
            n = len(kind)
            while n and kind[n - 1] == DEAD:
                n -= 1
            dead -= len(kind) - n
            del kind[n:], d.conn[3 * n :]
            if 2 * dead > n:
                d.compact()
                dead = 0
    if dead:
        d.compact()
    return d


# -- free and cyclic reduction (Lyndon-Schupp, ch. I.2) ------------------------

_INVERSE = {Generator(s, e): Generator(s, -e) for s in GENERATOR_PAIRS for e in (1, -1)}


def free_reduce(letters) -> list[Generator]:
    """``letters`` with every adjacent g g^-1 pair cancelled, in one pass
    with a stack.  The result names the same group element."""
    out = []
    for g in letters:
        if out and out[-1] == _INVERSE[g]:
            out.pop()
        else:
            out.append(g)
    return out


def _core(w: Word) -> tuple[list[Generator], int, int]:
    """The freely reduced letters of ``w`` and the bounds i, j of its
    cyclic core: ``letters[:i]`` is the inverse of ``letters[j:]``."""
    letters = free_reduce(w.letters)
    i, j = 0, len(letters)
    while j - i > 1 and letters[i] == _INVERSE[letters[j - 1]]:
        i += 1
        j -= 1
    return letters, i, j


def cyclic_core(w: Word) -> Word:
    """A freely and cyclically reduced conjugate of ``w``: with p the
    stripped prefix of the freely reduced word, ``w`` equals
    ``p * core * p^-1``."""
    letters, i, j = _core(w)
    return Word(w.group, tuple(letters[i:j]))


def random_word(group: str, length: int, rng) -> Word:
    """Uniform random word over the group alphabet and inverses."""
    alpha = ALPHABETS[group]
    letters = tuple(
        Generator(rng.choice(alpha), rng.choice((1, -1))) for _ in range(length)
    )
    return Word(group, letters)

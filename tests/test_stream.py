"""The streamed builder ``reduced_diagram`` against the unreduced
reference ``word_to_diagram`` followed by ``reduce_diagram``; free and
cyclic reduction against the oracle and the pinned corpus; and the
token-cached parser against the error positions and messages it kept."""

import random
from pathlib import Path

import pytest

from strandgroups import words
from strandgroups.canonical import annular_form, canonical_annular
from strandgroups.closure import close_abstract, close_annular, close_cylindrical, reduce_closed
from strandgroups.diagram import encode_square
from strandgroups.errors import AlphabetError, ParseError
from strandgroups.rewrite import reduce_diagram
from strandgroups.oracle import word_to_map
from strandgroups.toral import canonical_toral, toral_form
from strandgroups.vgroup import canonical_abstract, closed_form
from strandgroups.words import (
    Generator,
    Word,
    core_diagram,
    cyclic_core,
    free_reduce,
    parse_word,
    random_word,
    reduced_diagram,
    word_to_diagram,
)

from conftest import with_relators


def _canon(group, d):
    if group == "F":
        return canonical_annular(reduce_closed(close_annular(d))).blob
    if group == "T":
        return canonical_toral(reduce_closed(close_cylindrical(d, 0))).blob
    return canonical_abstract(reduce_closed(close_abstract(d))).blob


def _two_step(*ws):
    d = word_to_diagram(Word(ws[0].group, sum((w.letters for w in ws), ())))
    trace = []
    reduce_diagram(d, trace=trace)
    return d, len(trace)


def test_streamed_matches_two_step_reduction():
    rng = random.Random(71)
    for i in range(240):
        group = "FTV"[i % 3]
        w = random_word(group, rng.randrange(0, 201), rng)
        for ws in ((w,), (w, w.inverse())):
            ref, moves = _two_step(*ws)
            trace = []
            d = reduced_diagram(*ws, trace=trace)
            d.validate()
            assert len(trace) == moves
            assert len(d.kind) == d.num_vertices() == ref.num_vertices()
            assert encode_square(d) == encode_square(ref)
            if len(ws) == 1:
                assert _canon(group, d) == _canon(group, ref)
            else:
                assert d.is_identity()


def test_streamed_product_of_several_words():
    rng = random.Random(72)
    for group in "FTV":
        u, v, w = (random_word(group, rng.randrange(0, 60), rng) for _ in range(3))
        ref, _ = _two_step(u, v, w)
        assert encode_square(reduced_diagram(u, v, w)) == encode_square(ref)
    with pytest.raises(AlphabetError):
        reduced_diagram(Word("F", ()), Word("T", ()))


def _array_sizes(monkeypatch, trace, every):
    """(slots, live vertices) as every ``every``-th cascade starts, while
    ``w * v^-1`` streams in, for a random w of 10^4 letters in each group
    and v the same element with relators inserted, which free reduction
    cannot cancel entirely; also the moves fired."""
    seen = []
    moves = [0]
    cascade = words.cascade

    def watched(d, u, trace=None):
        if len(seen) % every == 0:
            seen.append((len(d.kind), d.num_vertices()))
        else:
            seen.append(None)
        fired = cascade(d, u, trace)
        moves[0] += fired
        return fired

    monkeypatch.setattr(words, "cascade", watched)
    rng = random.Random(73)
    for group in "FTV":
        seen.clear()
        moves[0] = 0
        w = random_word(group, 10**4, rng)
        d = reduced_diagram(w, with_relators(w, 100, rng).inverse(), trace=trace)
        assert len(d.kind) == 0 and d.is_identity()
        yield group, [s for s in seen if s is not None], moves[0]


def test_streamed_arrays_stay_within_twice_the_live_vertices(monkeypatch):
    # observed as each letter's cascade starts: the previous letter left at
    # most twice its live vertices, and one template (at most 6) came on top
    for _, sizes, moves in _array_sizes(monkeypatch, [], 97):
        assert len(sizes) > 100 and moves > 0
        assert all(n <= 2 * live + 6 for n, live in sizes), max(n - 2 * live for n, live in sizes)


def test_block_arrays_stay_within_twice_the_live_vertices(monkeypatch):
    # the same bound on the block path, with one block's template on top
    for group, sizes, moves in _array_sizes(monkeypatch, None, 23):
        largest = max(len(tpl[0]) for tpl in words._TEMPLATES[group == "T"].values())
        assert 6 < largest <= 12
        assert len(sizes) > 100 and moves > 0
        assert all(n <= 2 * live + largest for n, live in sizes), max(n - 2 * live for n, live in sizes)


def _pairs(group, rng, n):
    """A word of n random g g^-1 pairs: it and many of its blocks are identities."""
    letters = []
    for g in random_word(group, n, rng).letters:
        letters += (g, g.inverse())
    return Word(group, tuple(letters))


def _same_by_blocks_and_letters(*ws):
    d = reduced_diagram(*ws)
    ref = reduced_diagram(*ws, trace=[])
    d.validate()
    assert len(d.kind) == d.num_vertices() == ref.num_vertices()
    assert encode_square(d) == encode_square(ref)
    return d, ref


def test_blocks_match_letters():
    rng = random.Random(74)
    c = Generator("c", 1)
    for i in range(150):
        group = "FTV"[i % 3]
        w = random_word(group, rng.randrange(0, 401), rng)
        d, ref = _same_by_blocks_and_letters(w)
        assert _canon(group, d) == _canon(group, ref)
        assert reduced_diagram(w, w.inverse()).is_identity()
        # several words, whose blocks span the boundaries between them
        more = [random_word(group, rng.randrange(0, 9), rng) for _ in range(rng.randrange(2, 6))]
        _same_by_blocks_and_letters(w, *more)
        # g g^-1 pairs, and a few letters in front to shift the blocks
        p = _pairs(group, rng, rng.randrange(0, 40))
        assert _same_by_blocks_and_letters(p)[0].is_identity()
        _same_by_blocks_and_letters(random_word(group, i % 5, rng), p, w)
        if group == "T":
            # runs of c: the reduced blocks carry wrap counts
            u = Word("T", tuple(rng.choice((c, c.inverse())) for _ in range(rng.randrange(0, 9))))
            runs = Word("T", (c,) * rng.randrange(1, 13))
            for ws in ((runs,), (u, runs, w), (runs, p, runs), (w, runs, runs.inverse(), w.inverse())):
                d, ref = _same_by_blocks_and_letters(*ws)
                assert _canon("T", d) == _canon("T", ref)
            assert d.is_identity()


def test_identity_blocks_keep_the_sink_wrap():
    # w reduces to no vertices and wrap count -3 on its one edge; an
    # identity block after it must leave that wrap count on the sink edge,
    # and the next template must take it onto its source edge
    w = parse_word("x1 X1 X0 X1 x1 x0 x0 C C x0 C C", "T")
    pad = parse_word("x0 X0 x1 X1", "T")
    for ws in ((w,), (w, pad), (w, pad, pad, parse_word("x0", "T"))):
        d, _ = _same_by_blocks_and_letters(*ws)
        assert (d.num_vertices(), d.long.get(words.SINK)) == ((0, -3) if len(ws) < 3 else (4, None))


def _cancels(g, h):
    return g.symbol == h.symbol and g.sign == -h.sign


def test_free_reduce_and_cyclic_core_keep_the_element():
    rng = random.Random(75)
    for i in range(600):
        group = "FTV"[i % 3]
        w = random_word(group, rng.randrange(0, 13), rng)
        if i % 2:  # a conjugate, so that there is something to strip
            g = random_word(group, rng.randrange(1, 4), rng)
            w = g * w * g.inverse()
        free = free_reduce(w.letters)
        assert not any(_cancels(a, b) for a, b in zip(free, free[1:]))
        assert word_to_map(Word(group, tuple(free))) == word_to_map(w)
        core = cyclic_core(w)
        k = (len(free) - len(core)) // 2
        p = Word(group, tuple(free[:k]))
        assert free == list((p * core * p.inverse()).letters)
        assert len(core) < 2 or not _cancels(core.letters[0], core.letters[-1])
        assert word_to_map(w) == word_to_map(p * core * p.inverse())
        assert encode_square(core_diagram(w)) == encode_square(reduced_diagram(core, trace=[]))


def test_corpus_forms_of_rotations_and_conjugates_keep_their_hex():
    # the word-level forms start from the cyclic core, and every conjugate
    # has the pinned bytes of the word it conjugates
    forms = {
        "F": annular_form,
        "T": toral_form,
        "V": lambda w: canonical_abstract(closed_form(w)),
    }
    rng = random.Random(76)
    corpus = Path(__file__).parent / "data" / "canon_corpus.tsv"
    changed = []
    for line in corpus.read_text().splitlines():
        group, family, text, expected = line.split("\t")
        w = parse_word(text, group)
        r = rng.randrange(len(w) + 1)
        g = random_word(group, rng.randrange(1, 13), rng)
        rotated = Word(group, w.letters[r:] + w.letters[:r])
        for u in (w, rotated, g.inverse() * w * g):
            if forms[group](u).hex() != expected:
                changed.append((group, family, text[:40], len(u)))
    assert not changed, changed[:5]


def test_block_path_cancels_w_times_w_inverse(monkeypatch):
    # free reduction leaves nothing to splice; letter by letter, moves fire
    fired = []
    cascade = words.cascade

    def counted(d, u, trace=None):
        fired.append(cascade(d, u, trace))
        return fired[-1]

    monkeypatch.setattr(words, "cascade", counted)
    rng = random.Random(77)
    for group in "FTV":
        w = random_word(group, 1000, rng)
        d = reduced_diagram(w, w.inverse())
        assert len(d.kind) == 0 and d.is_identity() and sum(fired) == 0
        reduced_diagram(w, w.inverse(), trace=[])
        assert sum(fired) > 0
        fired.clear()


@pytest.mark.parametrize(
    "text,group,position,message",
    [
        ("x0 $$", "F", 3, "parse error at 3: bad token '$$'"),
        ("y3", "F", 0, "parse error at 0: unknown generator 'y3'"),
        ("c", "F", None, "generator 'c' is illegal in F"),
        ("pi0", "T", None, "generator 'pi0' is illegal in T"),
        ("x0 %%", "F", 3, "parse error at 3: bad token '%%'"),
        ("x x0 x", "F", 0, "parse error at 0: unknown generator 'x'"),
        ("x0 x0^2  X1*x \t x", "F", 12, "parse error at 12: unknown generator 'x'"),
        ("x1 x10 x1^-3 c x1", "F", 3, "parse error at 3: unknown generator 'x10'"),
        ("x0^ x0", "F", 0, "parse error at 0: bad token 'x0^'"),
        ("x0 x0 x0^-2 Pi0 q", "T", None, "generator 'pi0' is illegal in T"),
        ("x0*x1**c", "F", None, "generator 'c' is illegal in F"),
        ("  x0   x0 1x", "V", 10, "parse error at 10: bad token '1x'"),
        ("x0", "Q", None, "unknown group 'Q'"),
        ("x0 x1^2 x1 x2", "V", 11, "parse error at 11: unknown generator 'x2'"),
    ],
)
def test_parse_errors_keep_positions_and_messages(text, group, position, message):
    with pytest.raises(ParseError if position is not None else AlphabetError) as exc:
        parse_word(text, group)
    assert str(exc.value) == message
    assert getattr(exc.value, "position", None) == position


def test_parse_repeated_tokens_and_cheap_inverse():
    w = parse_word("x0 X1^2 x0 c^-1 x0", "T")
    assert w.letters == (
        Generator("x0", 1), Generator("x1", -1), Generator("x1", -1),
        Generator("x0", 1), Generator("c", -1), Generator("x0", 1),
    )
    assert w.inverse().inverse() == w
    assert [(g.symbol, g.sign) for g in w.inverse().letters[:2]] == [("x0", -1), ("c", 1)]
    with pytest.raises(AlphabetError, match="generator 'c' is illegal in F"):
        Word("F", (Generator("x0", 1), Generator("c", 1)))

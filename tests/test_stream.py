"""The streamed builder ``reduced_diagram`` against the unreduced
reference ``word_to_diagram`` followed by ``reduce_diagram``, and its
seam kernel against the loop it replaced (``conftest.reference_seams``);
free and cyclic reduction against the oracle and the pinned corpus; and
the token-cached parser against the error positions and messages it
kept."""

import random
import re
from itertools import product
from pathlib import Path

import pytest

from strandgroups import rewrite, words
from strandgroups.canonical import annular_form, canonical_annular
from strandgroups.closure import close_abstract, close_annular, close_cylindrical, reduce_closed
from strandgroups.diagram import MERGE, SPLIT, encode_square
from strandgroups.errors import AlphabetError, ParseError
from strandgroups.rewrite import reduce_diagram
from strandgroups.oracle import word_to_map
from strandgroups.toral import canonical_toral, toral_form
from strandgroups.vgroup import canonical_abstract, closed_form
from strandgroups.words import (
    ALPHABETS,
    Generator,
    Word,
    core_diagram,
    cyclic_core,
    free_reduce,
    generator_diagram,
    parse_word,
    random_word,
    reduced_diagram,
    word_to_diagram,
)

from conftest import count_seams, reference_seams, validate, with_relators


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
            validate(d)
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
    """(slots, live vertices) before every ``every``-th splice, while
    ``w * v^-1`` streams in, for a random w of 10^4 letters in each group
    and v the same element with relators inserted, which free reduction
    cannot cancel entirely; also the moves fired."""
    seen = []

    def observe(d):
        seen.append((len(d.kind), d.num_vertices()) if len(seen) % every == 0 else None)

    counts = count_seams(monkeypatch, observe)
    rng = random.Random(73)
    for group in "FTV":
        seen.clear()
        w = random_word(group, 10**4, rng)
        d = reduced_diagram(w, with_relators(w, 100, rng).inverse(), trace=trace)
        assert len(d.kind) == 0 and d.is_identity()
        moves, examined = counts[-1]
        assert examined > 0
        yield group, [s for s in seen if s is not None], moves


def test_streamed_arrays_stay_within_twice_the_live_vertices(monkeypatch):
    # observed before each letter's splice: the letters before it left at
    # most twice their live vertices, and one template (at most 6) comes on top
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
    validate(d)
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
    counts = count_seams(monkeypatch)
    rng = random.Random(77)
    for group in "FTV":
        w = random_word(group, 1000, rng)
        d = reduced_diagram(w, w.inverse())
        assert len(d.kind) == 0 and d.is_identity() and counts[-1] == (0, 0)
        reduced_diagram(w, w.inverse(), trace=[])
        assert counts[-1][0] > 0


def _check_boundary_edges(d):
    # what lets the kernel skip boundary tests: the source edge enters a
    # split or the sink, the sink edge leaves a merge or the source
    head, tail = d.src_conn[0], d.snk_conn[0]
    assert head < 0 or d.kind[head // 3] == SPLIT, head
    assert tail < 0 or d.kind[tail // 3] == MERGE, tail


def test_seam_kernel_matches_the_reference_loop(monkeypatch):
    # the kernel against ``_grow`` and ``rewrite.cascade``: the same arrays
    # and wraps, the same moves in the same order, as many redex tests;
    # the boundary edges checked before each splice and after each build
    counts = count_seams(monkeypatch, _check_boundary_edges)
    kernel = words._seams
    redex_at = rewrite._redex_at
    tests = [0]

    def counted(g, u):
        tests[0] += 1
        return redex_at(g, u)

    def reference(d, keys, trace=None):
        tests[0] = 0
        counts.append((reference_seams(d, keys, trace), tests[0]))
        return counts[-1]

    monkeypatch.setattr(rewrite, "_redex_at", counted)
    rng = random.Random(78)
    cases = [(random_word(group, 10**4, rng),) for group in "FTV"]
    for i in range(150):
        w = random_word("FTV"[i % 3], rng.randrange(0, 301), rng)
        cases += [(w,), (w, with_relators(w, 1 + len(w) // 40, rng).inverse())]
    total = [0, 0]
    for ws in cases:
        for trace in (None, []):
            built = []
            for seams in (kernel, reference):  # the kernel fills the templates
                monkeypatch.setattr(words, "_seams", seams)
                t = None if trace is None else []
                d = reduced_diagram(*ws, trace=t)
                _check_boundary_edges(d)
                built.append((bytes(d.kind), d.conn, d.src_conn, d.snk_conn, d.long, t, counts[-1]))
            assert built[0] == built[1]
            total = [a + b for a, b in zip(total, counts[-1])]
    assert total[0] > 0 and total[1] > 0


def test_identity_templates_carry_no_wrap():
    # every key the block path meets is freely reduced; the identity
    # templates among them are these two (no key leaves a sink wrap, below)
    identities = []
    for group in "FTV":
        templates = words._TEMPLATES[group == "T"]
        codes = [c for c, g in enumerate(words._LETTERS) if g.symbol in ALPHABETS[group]]
        for n in range(2, words._BLOCK[group] + 1):
            for key in product(codes, repeat=n):
                if any(a == b ^ 1 for a, b in zip(key, key[1:])):
                    continue
                if not templates[key][0]:
                    identities.append((group, key))
    pi0 = Generator("pi0", 1)
    assert [(g, [words._LETTERS[c] for c in key]) for g, key in identities] == [
        ("V", [pi0, pi0]),
        ("V", [pi0.inverse(), pi0.inverse()]),
    ]


def test_no_key_leaves_a_wrap_on_the_sink_edge():
    # the templates keep no sink wrap: no freely reduced key of 1 to
    # _BLOCK letters, every key a builder splices, leaves one; F and V
    # diagrams carry no wraps at all.  A letter is checked on its own
    # diagram, and longer keys are spliced from the letters.
    for group in "FTV":
        letters = [g for g in words._LETTERS if g.symbol in ALPHABETS[group]]
        diagrams = [generator_diagram(g, group) for g in letters]
        for n in range(1, words._BLOCK[group] + 1):
            for key in product(letters, repeat=n):
                if not any(_cancels(a, b) for a, b in zip(key, key[1:])):
                    diagrams.append(reduced_diagram(Word(group, key), trace=[]))
        for d in diagrams:
            assert (d.long is not None) == (group == "T")
            assert (d.long or {}).get(words.SINK, 0) == 0
        assert len(diagrams) == {"F": 4 + 160, "T": 6 + 936, "V": 8 + 456}[group]


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


@pytest.mark.parametrize(
    "text",
    ["", " * ", "x0", "x0*x1", " x0**X1^2* ", "*x0 *\tx1^-2\n", "x0\xa0x1\u2003X0", "x1\x1cx0\x85c", "\u3000pi0\r\n\x0bx0\x0c"],
)
def test_parse_tokens_split_where_the_regex_splits(text):
    tokens = [t for t in re.split(r"[\s*]+", text) if t]
    assert parse_word(text, "V").letters == sum((parse_word(t, "V").letters for t in tokens), ())


def test_regex_whitespace_is_str_isspace():
    # parse_word splits with str.split(), error positions come from re's \s
    text = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", text) == [c for c in text if c.isspace()]


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

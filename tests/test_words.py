"""Word grammar, generator conventions, linear diagram building."""

import pytest

from strandgroups.diagram import concatenate, encode_square, identity_diagram
from strandgroups.errors import AlphabetError, ParseError
from strandgroups.rewrite import find_redexes, reduce_diagram
from strandgroups.words import (
    Generator,
    Word,
    commutator,
    generator_diagram,
    parse_word,
    random_word,
    word,
    word_to_diagram,
    word_to_text,
)

from conftest import validate


def test_parse_basic():
    w = parse_word("x0 x1^-2")
    assert [(g.symbol, g.sign) for g in w.letters] == [("x0", 1), ("x1", -1), ("x1", -1)]


def test_parse_powers_and_star():
    assert len(parse_word("x0^3").letters) == 3
    assert parse_word("x0*x1").letters == parse_word("x0 x1").letters
    assert parse_word("x0^0").letters == ()
    assert parse_word("").letters == ()


def test_parse_uppercase_is_inverse():
    w = parse_word("X0")
    assert w.letters == (Generator("x0", -1),)
    # uppercase with exponent composes signs
    assert parse_word("X0^2").letters == (Generator("x0", -1),) * 2
    assert parse_word("X0^-1").letters == (Generator("x0", 1),)


def test_parse_alphabet_errors():
    with pytest.raises(AlphabetError):
        parse_word("c", "F")
    with pytest.raises(AlphabetError):
        parse_word("pi0", "T")
    parse_word("pi0", "V")  # fine


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse_word("x0 $$")
    with pytest.raises(ParseError):
        parse_word("y3")


def test_round_trip_printer(rng):
    for grp in ("F", "T", "V"):
        for _ in range(20):
            w = random_word(grp, rng.randrange(0, 10), rng)
            assert parse_word(word_to_text(w), grp) == w


def test_generator_diagrams_irreducible():
    for grp, syms in (("F", ("x0", "x1")), ("T", ("x0", "x1", "c")), ("V", ("x0", "x1", "c", "pi0"))):
        for sym in syms:
            for sign in (1, -1):
                d = generator_diagram(Generator(sym, sign), grp)
                validate(d)
                assert find_redexes(d) == []
                assert d.num_vertices() <= 6


def test_generator_diagram_alphabet_error():
    with pytest.raises(AlphabetError):
        generator_diagram(Generator("c", 1), "F")


def test_generator_diagram_inverse_is_invert():
    a = generator_diagram(Generator("x0", -1))
    b = generator_diagram(Generator("x0", 1))
    assert encode_square(a) != encode_square(b)
    d = reduce_diagram(concatenate(a, b))
    assert d.is_identity()


def test_word_to_diagram_empty():
    assert word_to_diagram(Word("F", ())).is_identity()
    t = word_to_diagram(Word("T", ()))
    assert t.is_identity() and t.long == {}


def test_word_to_diagram_matches_generic_concatenation(rng):
    for grp in ("F", "T", "V"):
        for _ in range(25):
            w = random_word(grp, rng.randrange(1, 9), rng)
            fast = word_to_diagram(w)
            slow = identity_diagram(cylindrical=(grp == "T"))
            for g in w.letters:
                slow = concatenate(slow, generator_diagram(g, grp))
            validate(fast)
            assert encode_square(fast) == encode_square(slow)


def test_word_to_diagram_size_bound(rng):
    for _ in range(30):
        w = random_word("V", rng.randrange(0, 30), rng)
        d = word_to_diagram(w)
        assert d.num_vertices() <= 6 * len(w)


def test_relations_reduce_to_identity():
    r1 = commutator(parse_word("x0 x1^-1"), parse_word("x0^-1 x1 x0"))
    r2 = commutator(parse_word("x0 x1^-1"), parse_word("x0^-2 x1 x0^2"))
    for r in (r1, r2):
        d = word_to_diagram(r)
        reduce_diagram(d)
        assert d.is_identity()


def test_word_times_inverse_reduces_to_identity(rng):
    for grp in ("F", "T", "V"):
        for _ in range(40):
            w = random_word(grp, rng.randrange(0, 12), rng)
            d = word_to_diagram(w * w.inverse())
            reduce_diagram(d)
            assert d.is_identity()


def test_word_constructor_and_inverse():
    w = word("F", "x0", ("x1", -1))
    assert word_to_text(w) == "x0 x1^-1"
    assert word_to_text(w.inverse()) == "x1 x0^-1"
    with pytest.raises(AlphabetError):
        word("F", "pi0")

"""Serialization: JSON round trips, schema shape, DOT smoke tests."""

import json

from strandgroups.closure import close_annular, close_cylindrical, reduce_closed
from strandgroups.io import (
    closed_to_dot,
    closed_to_json,
    square_to_dot,
    square_to_json,
    to_json_text,
)
from strandgroups.diagram import encode_square
from strandgroups.rewrite import reduce_diagram
from strandgroups.words import Word, parse_word, random_word, word_to_diagram

from conftest import square_from_json


def test_square_json_roundtrip(rng):
    for grp in ("F", "T", "V"):
        for _ in range(30):
            w = random_word(grp, rng.randrange(0, 10), rng)
            d = word_to_diagram(w)
            obj = json.loads(to_json_text(square_to_json(d)))
            d2 = square_from_json(obj)
            assert encode_square(d) == encode_square(d2)


def test_square_json_schema():
    obj = square_to_json(word_to_diagram(parse_word("x0")))
    assert obj["m"] == 1 and obj["n"] == 1
    assert {v["kind"] for v in obj["vertices"]} == {"split", "merge"}
    for e in obj["edges"]:
        for end, role in ((e["from"], "from"), (e["to"], "to")):
            assert ("vertex" in end and "port" in end) or "source" in end or "sink" in end
            if "vertex" in end:
                assert end["port"] in (0, 1)
    froms = [e["from"] for e in obj["edges"]]
    assert {"source": 0} in froms


def test_identity_diagram_json():
    obj = square_to_json(word_to_diagram(Word("F", ())))
    assert obj["vertices"] == []
    assert obj["edges"] == [{"from": {"source": 0}, "to": {"sink": 0}}]


def test_closed_json_fields():
    a = reduce_closed(close_annular(word_to_diagram(parse_word("x0"))))
    obj = closed_to_json(a)
    assert obj["mode"] == "annular"
    assert all("crossingWeight" in e for e in obj["edges"])
    assert isinstance(obj["freeLoops"], list)

    t = reduce_closed(close_cylindrical(word_to_diagram(parse_word("c", "T")), 0))
    objt = closed_to_json(t)
    assert all("longitudeWeight" in e for e in objt["edges"])
    assert all("crossingWeight" in e for e in objt["edges"])

    v = reduce_closed(close_annular(word_to_diagram(parse_word("x0"))))
    v.mode = "closed"
    objv = closed_to_json(v)
    assert all("c" in e for e in objv["edges"])


def test_dot_smoke():
    d = word_to_diagram(parse_word("x0 x1"))
    reduce_diagram(d)
    dot = square_to_dot(d)
    assert dot.startswith("digraph") and "triangle" in dot and "invtriangle" in dot

    a = reduce_closed(close_annular(d))
    cdot = closed_to_dot(a)
    assert "label=" in cdot  # crossing weights drawn as edge labels

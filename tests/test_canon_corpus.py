"""The pinned canonical-form corpus keeps its bytes.

``tests/data/canon_corpus.tsv`` holds the hex that ``reduce -g F|T|V
--emit-canon`` printed for seeded random words, symmetric powers,
torsion elements and (for V) the dyadic-block family when the corpus was
written (see
``tests/data/make_canon_corpus.py``).  A change to the canonical layer
that alters any of these bytes changes which diagrams compare equal.
"""

from pathlib import Path

from strandgroups import cli

CORPUS = Path(__file__).parent / "data" / "canon_corpus.tsv"


def test_pinned_corpus_is_byte_identical(capsys):
    entries = [line.split("\t") for line in CORPUS.read_text().splitlines()]
    assert len(entries) == 291
    changed = []
    for group, family, text, expected in entries:
        assert cli.main(["reduce", "-g", group, text, "--emit-canon"]) == 0
        if capsys.readouterr().out.splitlines()[-1] != expected:
            changed.append((group, family, text[:60]))
    assert not changed, f"{len(changed)} of {len(entries)} entries changed: {changed[:5]}"

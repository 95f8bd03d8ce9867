"""The pinned canonical-form corpus keeps its bytes.

``tests/data/canon_corpus.tsv`` holds the hex that ``reduce -g F|T|V
--emit-canon`` printed for seeded random words, symmetric powers up to
w^32, torsion elements and (for V) the dyadic-block family when the
corpus was written (see ``tests/data/make_canon_corpus.py``).  A change to the canonical layer
that alters any of these bytes changes which diagrams compare equal.
``tests/data/canon_digests.tsv`` pins the same hex, as sha256 digests,
for seeded random words of 10^3 and 10^5 letters in each group.
"""

import importlib.util
from pathlib import Path

from strandgroups import cli

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "canon_corpus.tsv"


def test_pinned_corpus_is_byte_identical(capsys):
    entries = [line.split("\t") for line in CORPUS.read_text().splitlines()]
    assert len(entries) == 300
    changed = []
    for group, family, text, expected in entries:
        assert cli.main(["reduce", "-g", group, text, "--emit-canon"]) == 0
        if capsys.readouterr().out.splitlines()[-1] != expected:
            changed.append((group, family, text[:60]))
    assert not changed, f"{len(changed)} of {len(entries)} entries changed: {changed[:5]}"


def test_pinned_digests_at_scale():
    spec = importlib.util.spec_from_file_location("make_canon_corpus", DATA / "make_canon_corpus.py")
    make = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make)
    entries = [line.split("\t") for line in (DATA / "canon_digests.tsv").read_text().splitlines()]
    assert [(group, int(n)) for group, n, _ in entries] == [(g, n) for g in "FTV" for n in make.DIGEST_LETTERS]
    for group, n, expected in entries:
        assert make.canon_digest(group, make.digest_word(group, int(n))) == expected, (group, n)

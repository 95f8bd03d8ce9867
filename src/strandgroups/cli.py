"""Command-line surface.

Verbs:
    reduce  -g F "x0 x1^-1"        vertex/edge counts, optional canonical hex
    eq      -g F "w1" "w2"         word problem via diagram reduction
    conj    -g {F,T,V} "w1" "w2"   conjugacy decision
    rotnum  "w"                    rotation number of a T word
    oracle  eq|conj ...            exact prefix-map oracle
    export  --format dot|json      serialized reduced diagram
    bench   reduce -g F --lengths  streamed-build timings

A word argument may be ``@path`` (read a file) or ``-`` (read stdin, for
one word only); Linux caps one exec argument at 128 KiB, ~3x10^4 letters.

Exit codes: 0 ok, 1 internal invariant violation (a bug), 2 user error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .canonical import canonical_annular, is_conjugate_f
from .closure import close_abstract, close_annular, close_cylindrical, reduce_closed
from .diagram import in_traversal_order
from .errors import AlphabetError, ArityMismatch, ParseError, StrandError
from .io import closed_to_dot, closed_to_json, square_to_dot, square_to_json, to_json_text
from .oracle import brute_conj_witness, word_to_map
from .toral import canonical_toral, is_conjugate_t, rotation_number
from .vgroup import canonical_abstract, is_conjugate_v
from .words import parse_word, random_word, reduced_diagram, word_to_text


# each group's closure and conjugacy-class canonical form: annular for F,
# toral for T, abstract for V
_CLOSED_FORMS = {
    "F": (close_annular, canonical_annular),
    "T": (close_cylindrical, canonical_toral),
    "V": (close_abstract, canonical_abstract),
}


def _cmd_reduce(args) -> int:
    trace = [] if args.trace else None
    d = reduced_diagram(parse_word(args.word, args.group), trace=trace)
    edges = sum(1 for _ in d.edges())
    print(f"vertices={d.num_vertices()} edges={edges}")
    if args.trace:
        for kind, top, bottom in trace:
            print(f"{kind} {top} {bottom}")
    if args.emit_canon:
        close, form = _CLOSED_FORMS[args.group]
        print(form(reduce_closed(close(d))).blob.hex())
    return 0


def _cmd_eq(args) -> int:
    w1 = parse_word(args.word1, args.group)
    w2 = parse_word(args.word2, args.group)
    d = reduced_diagram(w1, w2.inverse())
    print("true" if d.is_identity() else "false")
    return 0


def _cmd_conj(args) -> int:
    w1 = parse_word(args.word1, args.group)
    w2 = parse_word(args.word2, args.group)
    verdict = {
        "F": is_conjugate_f,
        "T": is_conjugate_t,
        "V": is_conjugate_v,
    }[args.group](w1, w2)
    print("true" if verdict else "false")
    return 0


def _cmd_rotnum(args) -> int:
    w = parse_word(args.word, "T")
    r = rotation_number(w)
    print(f"{r.numerator}/{r.denominator}")
    return 0


def _cmd_oracle(args) -> int:
    if args.oracle_verb == "eq":
        m1 = word_to_map(parse_word(args.word1, args.group))
        m2 = word_to_map(parse_word(args.word2, args.group))
        print("true" if m1 == m2 else "false")
        return 0
    w1 = parse_word(args.word1, args.group)
    w2 = parse_word(args.word2, args.group)
    witness = brute_conj_witness(w1, w2, args.max_len)
    if witness is None:
        print("none")
    else:
        print(word_to_text(witness) if witness.letters else "<empty>")
    return 0


def _cmd_export(args) -> int:
    d = in_traversal_order(reduced_diagram(parse_word(args.word, args.group)))
    if args.stage == "square":
        out = square_to_dot(d) if args.format == "dot" else to_json_text(square_to_json(d))
    else:
        c = reduce_closed(_CLOSED_FORMS[args.group][0](d))
        out = closed_to_dot(c) if args.format == "dot" else to_json_text(closed_to_json(c))
    print(out)
    return 0


def _cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    print("# N stream_s vertices slots")
    for n in args.lengths:
        w = random_word(args.group, n, rng)
        t0 = time.perf_counter()
        d = reduced_diagram(w)
        t1 = time.perf_counter()
        print(f"{n} {t1 - t0:.3f} {d.num_vertices()} {len(d.kind)}", flush=True)
    return 0


def _word_text(arg: str) -> str:
    """A word argument as text: ``-`` reads standard input and ``@path``
    reads the file at path; anything else is the word itself."""
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        try:
            with open(arg[1:], encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot read {arg[1:]!r}: {exc.strerror}") from exc
    return arg


def _lengths(text: str) -> list[int]:
    """``--lengths``: comma-separated positive integers, returned sorted."""
    try:
        lengths = sorted(int(x) for x in text.split(","))
    except ValueError:
        lengths = [0]
    if lengths[0] < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")
    return lengths


def _max_len(text: str) -> int:
    """``--max-len``: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="strandgroups")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_group(sp):
        sp.add_argument("-g", "--group", choices=("F", "T", "V"), default="F")

    def add_words(sp, *names):
        for name in names:
            sp.add_argument(name, type=_word_text, help="a word, @path or - (stdin)")

    sp = sub.add_parser("reduce", help="reduce a word's strand diagram")
    add_group(sp)
    add_words(sp, "word")
    sp.add_argument("--emit-canon", action="store_true")
    sp.add_argument("--trace", action="store_true", help="print (kind, top, bottom) per move")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("eq", help="word problem")
    add_group(sp)
    add_words(sp, "word1", "word2")
    sp.set_defaults(func=_cmd_eq)

    sp = sub.add_parser("conj", help="conjugacy problem")
    add_group(sp)
    add_words(sp, "word1", "word2")
    sp.set_defaults(func=_cmd_conj)

    sp = sub.add_parser("rotnum", help="rotation number of a T word")
    add_words(sp, "word")
    sp.set_defaults(func=_cmd_rotnum)

    sp = sub.add_parser("oracle", help="exact prefix-map oracle")
    osub = sp.add_subparsers(dest="oracle_verb", required=True)
    oe = osub.add_parser("eq")
    add_group(oe)
    add_words(oe, "word1", "word2")
    oe.set_defaults(func=_cmd_oracle)
    oc = osub.add_parser("conj")
    add_group(oc)
    oc.add_argument("--max-len", type=_max_len, default=6)
    add_words(oc, "word1", "word2")
    oc.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("export", help="serialize a reduced diagram")
    add_group(sp)
    sp.add_argument("--format", choices=("dot", "json"), default="json")
    sp.add_argument("--stage", choices=("square", "closed"), default="square")
    add_words(sp, "word")
    sp.set_defaults(func=_cmd_export)

    sp = sub.add_parser("bench", help="reduction scaling measurements")
    bsub = sp.add_subparsers(dest="bench_verb", required=True)
    br = bsub.add_parser("reduce")
    add_group(br)
    br.add_argument("--lengths", type=_lengths, default="1000,10000,100000")
    br.add_argument("--seed", type=int, default=0)
    br.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv.count("-") > 1:  # no option takes "-", so each is a word
        parser.error("standard input (-) holds one word only")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, AlphabetError, ArityMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StrandError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

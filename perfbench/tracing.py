"""Traced decisions: one span around each call into a module's public
functions, and the per-layer metrics computed from those spans.

Each verb is rebuilt from the functions that ``cli``, ``annular_form``,
``toral_form``, ``closed_form`` and ``rotation_number`` call, in the same
order, so a traced decision does the same work as ``cli.main`` plus the
cost of its spans.  Sizes are read after the decision's span has closed
(probes), so they cost the traced wall time nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from math import gcd

from strandgroups import cli
from strandgroups.canonical import canonical_annular
from strandgroups.closure import (
    check_cycle_structure,
    close_abstract,
    close_annular,
    close_cylindrical,
    reduce_closed,
    ring_decomposition,
    weak_components,
)
from strandgroups.errors import AlphabetError, ArityMismatch, ParseError, StrandError, StructureViolation
from strandgroups.rewrite import ReductionStats, reduce_diagram
from strandgroups.toral import canonical_toral, cycle_class, dehn_normalize
from strandgroups.vgroup import closed_diagrams_equal
from strandgroups.words import parse_word, word_to_diagram

_perf = time.perf_counter


class Tracer:
    """Spans kept in memory as [name, start, end, parent, decision]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.decision = -1

    def begin(self) -> None:
        """Start the next decision; a decision stopped by its time limit
        may have left spans open."""
        self.decision += 1
        self._open.clear()

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, _perf(), None, parent, self.decision]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _perf()
            self._open.pop()


# group -> (closure span, closure, its extra arguments, canonical form span, canonical form)
_FORMS = {
    "F": ("closure.close_annular", close_annular, (), "canonical.canonical_annular", canonical_annular),
    "T": ("closure.close_cylindrical", close_cylindrical, (0,), "toral.canonical_toral", canonical_toral),
}


class Decision:
    """Runs one traced decision and keeps what the probes read."""

    def __init__(self, tracer: Tracer, argv):
        self.t = tracer
        self.argv = list(argv)
        self.squares = []   # (diagram, ReductionStats)
        self.closed = []    # reduced closed diagrams
        self.v_pairs = []   # closed diagrams compared in V

    def run(self) -> int:
        """Print the verdict and return the exit code ``cli.main`` would."""
        args = self.t.call("cli.parse_args", lambda: cli.build_parser().parse_args(self.argv))
        try:
            out = getattr(self, "_" + args.verb)(args)
        except (ParseError, AlphabetError, ArityMismatch):
            return 2
        except StrandError:
            return 1
        print(out)
        return 0

    # -- stages shared by the verbs --------------------------------------

    def _parse(self, text, group):
        return self.t.call("words.parse_word", parse_word, text, group)

    def _square(self, w):
        d = self.t.call("words.word_to_diagram", word_to_diagram, w)
        stats = ReductionStats()
        self.t.call("rewrite.reduce_diagram", reduce_diagram, d, stats=stats)
        self.squares.append((d, stats))
        return d

    def _closed(self, name, closer, d, *extra):
        c = self.t.call(name, closer, d, *extra)
        self.t.call("closure.reduce_closed", reduce_closed, c)
        self.closed.append(c)
        return c

    # -- verbs -------------------------------------------------------------

    def _eq(self, args):
        w1 = self._parse(args.word1, args.group)
        w2 = self._parse(args.word2, args.group)
        d = self._square(w1 * w2.inverse())
        return "true" if d.is_identity() else "false"

    def _conj(self, args):
        w1 = self._parse(args.word1, args.group)
        w2 = self._parse(args.word2, args.group)
        if args.group in _FORMS:  # is_conjugate_f -> annular_form, is_conjugate_t -> toral_form
            close_name, closer, extra, form_name, form = _FORMS[args.group]
            f1, f2 = (
                self.t.call(form_name, form, self._closed(close_name, closer, self._square(w), *extra))
                for w in (w1, w2)
            )
            same = f1 == f2
        else:  # is_conjugate_v -> closed_form
            c1, c2 = (
                self._closed("closure.close_abstract", close_abstract, self._square(w))
                for w in (w1, w2)
            )
            self.v_pairs.append((c1, c2))
            same = self.t.call("vgroup.closed_diagrams_equal", closed_diagrams_equal, c1, c2)
        return "true" if same else "false"

    def _rotnum(self, args):
        w = self._parse(args.word, "T")
        t = self._closed("closure.close_cylindrical", close_cylindrical, self._square(w), 0)
        self.t.call("toral.dehn_normalize", dehn_normalize, t)
        n, k = self.t.call("toral.cycle_class", cycle_class, t)
        if gcd(n, k % n) != 1 and k % n != 0:
            raise StructureViolation(f"reduced toral class ({n},{k}) is not primitive")
        r = Fraction(k % n, n)
        return f"{r.numerator}/{r.denominator}"

    # -- probes, run after the decision's span has closed -------------------

    def probe(self) -> dict:
        counts = {
            "words.vertices_built": 0, "rewrite.vertices_out": 0, "rewrite.moves": 0,
            "rewrite.examined": 0, "rewrite.rounds": 0, "closure.vertices_out": 0,
            "closure.free_loops": 0, "closure.rings": 0, "closure.structure_s": 0.0,
            "canonical.cycle_vertices": 0, "vgroup.components": 0,
            "vgroup.same_size_components_max": 0,
        }
        for d, stats in self.squares:
            counts["words.vertices_built"] += len(d.kind)
            counts["rewrite.vertices_out"] += d.num_vertices()
            counts["rewrite.moves"] += stats.moves
            counts["rewrite.examined"] += stats.examined_total
            counts["rewrite.rounds"] += len(stats.rounds)
        for c in self.closed:
            counts["closure.vertices_out"] += c.num_vertices()
            counts["closure.free_loops"] += len(c.free_loops)
            t0 = _perf()
            try:
                check_cycle_structure(c)
            except StrandError:
                continue  # a probe only: the verdict never depended on it
            counts["closure.structure_s"] += _perf() - t0
            rings = ring_decomposition(c)
            counts["closure.rings"] += len(rings)
            counts["canonical.cycle_vertices"] += sum(
                len(cyc.vertices) for r in rings if r.kind == "component" for cyc in r.cycles
            )
        for pair in self.v_pairs:
            for c in pair:
                sizes = Counter(len(comp) for comp in weak_components(c))
                counts["vgroup.components"] += sum(sizes.values())
                counts["vgroup.same_size_components_max"] = max(
                    counts["vgroup.same_size_components_max"], max(sizes.values(), default=0)
                )
        return counts


# -- per-layer metrics ----------------------------------------------------------

# metric -> span names whose durations it sums
SPAN_METRICS = {
    "cli.parse_s": ("cli.parse_args",),
    "words.parse_s": ("words.parse_word",),
    "words.build_s": ("words.word_to_diagram",),
    "rewrite.reduce_s": ("rewrite.reduce_diagram",),
    "closure.close_s": ("closure.close_annular", "closure.close_cylindrical", "closure.close_abstract"),
    "closure.reduce_closed_s": ("closure.reduce_closed",),
    "canonical.annular_s": ("canonical.canonical_annular",),
    "toral.canonical_s": ("toral.canonical_toral",),
    "toral.rotation_number_s": ("toral.dehn_normalize", "toral.cycle_class"),
    "vgroup.equal_s": ("vgroup.closed_diagrams_equal",),
}

# every per-layer metric with its unit, grouped by layer
UNITS = {
    "cli.parse_s": "s",
    "words.parse_s": "s", "words.build_s": "s", "words.vertices_built": "count",
    "rewrite.reduce_s": "s", "rewrite.vertices_out": "count", "rewrite.moves": "count",
    "rewrite.examined": "count", "rewrite.moves_per_examined": "ratio", "rewrite.rounds": "count",
    "closure.close_s": "s", "closure.reduce_closed_s": "s", "closure.vertices_out": "count",
    "closure.free_loops": "count", "closure.rings": "count", "closure.structure_s": "s",
    "canonical.annular_s": "s", "canonical.cycle_vertices": "count",
    "toral.canonical_s": "s", "toral.rotation_number_s": "s",
    "vgroup.equal_s": "s", "vgroup.components": "count", "vgroup.same_size_components_max": "count",
    "trace.overhead": "ratio",
}


def layer_metrics(spans, probes, decisions: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-decision means of span seconds and probe counts over all
    ``decisions`` traced; ``vgroup.same_size_components_max`` is a maximum
    and ``rewrite.moves_per_examined`` a ratio of totals."""
    by_name: dict[str, float] = {}
    for name, start, end, _parent, _decision in spans:
        if end is not None:  # None only if the time limit struck as the span opened
            by_name[name] = by_name.get(name, 0.0) + (end - start)
    out = {
        metric: sum(by_name.get(n, 0.0) for n in names) / decisions
        for metric, names in SPAN_METRICS.items()
    }
    totals: dict[str, float] = {}
    for counts in probes:
        for name, value in counts.items():
            if name == "vgroup.same_size_components_max":
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    for name, value in totals.items():
        out[name] = value if name == "vgroup.same_size_components_max" else value / decisions
    examined = totals.get("rewrite.examined", 0)
    out["rewrite.moves_per_examined"] = totals.get("rewrite.moves", 0) / examined if examined else 0.0
    out["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return {name: {"value": out[name], "unit": UNITS[name]} for name in UNITS}

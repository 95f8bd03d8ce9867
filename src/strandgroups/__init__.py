"""Strand-diagram engine for the word and conjugacy problems in
Thompson's groups F, T and V.

Words over the standard generating sets become square strand diagrams;
confluent rewriting yields unique reduced forms; closing the diagrams
up (annular for F, toral for T, abstract closed for V) yields conjugacy
invariants.  An exact prefix-map oracle provides independent ground
truth for every pipeline.
"""

from .diagram import (
    StrandDiagram,
    concatenate,
    conjugate_by_vine,
    encode_square,
    from_tree_pair,
    identity_diagram,
    invert,
    vine,
)
from .trees import TreePair
from .words import (
    Generator,
    Word,
    generator_diagram,
    parse_word,
    random_word,
    reduced_diagram,
    word,
    word_to_diagram,
    word_to_text,
)
from .rewrite import (
    Redex,
    ReductionStats,
    find_redexes,
    reduce_diagram,
)
from .closure import (
    ClosedDiagram,
    FreeLoop,
    Ring,
    check_cycle_structure,
    close_abstract,
    close_annular,
    close_cylindrical,
    cutting_sequence,
    reduce_closed,
    ring_decomposition,
)
from .canonical import CanonicalForm, annular_form, canonical_annular, is_conjugate_f
from .toral import (
    canonical_toral,
    dehn_normalize,
    dehn_twist,
    is_conjugate_t,
    rotation_number,
    torsion_witness,
)
from .vgroup import (
    canonical_abstract,
    closed_form,
    is_conjugate_v,
    torsion_check,
)
from .oracle import (
    PrefixMap,
    brute_conj_witness,
    compose,
    equals_identity,
    invert_map,
    map_power,
    word_from_map_f,
    word_from_map_t,
    word_to_map,
)

__all__ = [
    "StrandDiagram",
    "TreePair",
    "concatenate",
    "conjugate_by_vine",
    "from_tree_pair",
    "identity_diagram",
    "invert",
    "vine",
    "Generator",
    "Word",
    "generator_diagram",
    "parse_word",
    "random_word",
    "reduced_diagram",
    "word",
    "word_to_diagram",
    "word_to_text",
    "Redex",
    "ReductionStats",
    "encode_square",
    "find_redexes",
    "reduce_diagram",
    "ClosedDiagram",
    "FreeLoop",
    "Ring",
    "check_cycle_structure",
    "close_abstract",
    "close_annular",
    "close_cylindrical",
    "cutting_sequence",
    "reduce_closed",
    "ring_decomposition",
    "CanonicalForm",
    "annular_form",
    "canonical_annular",
    "is_conjugate_f",
    "canonical_toral",
    "dehn_normalize",
    "dehn_twist",
    "is_conjugate_t",
    "rotation_number",
    "torsion_witness",
    "canonical_abstract",
    "closed_form",
    "is_conjugate_v",
    "torsion_check",
    "PrefixMap",
    "brute_conj_witness",
    "compose",
    "equals_identity",
    "invert_map",
    "map_power",
    "word_from_map_f",
    "word_from_map_t",
    "word_to_map",
]

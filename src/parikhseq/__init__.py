"""Parikh, factor, and sequence matrices for words over ordered alphabets,
exact gapped-subsequence counting, special minors with witness-word
reduction, and generalized subword histories."""

from .counting import (
    count_factor,
    count_gapped,
    count_subword,
    factor_starts,
)
from .gsh import (
    EPSILON,
    Expr,
    LinearForm,
    equivalent,
    equivalent_bounded,
    evaluate,
    linearize,
    linearize_product,
    mono,
    parse_expr,
    red,
)
from .intmat import IntMatrix
from .minors import (
    MinorSweep,
    check_minor_nonneg,
    special_minor,
    verify_witness,
    witness_parikh_matrix,
    witness_text,
    witness_word,
)
from .parikh import ParikhContext, ParikhFold, parikh_matrix, parikh_matrix_direct
from .seqmat import (
    SeqFold,
    SeqMatrix,
    minor_index_set,
    seq_matrix,
    seq_matrix_direct,
    special_minor_from_matrix,
)
from .words import (
    Alphabet,
    GapPattern,
    PatternError,
    parse_word,
)

__all__ = [
    "Alphabet",
    "EPSILON",
    "Expr",
    "GapPattern",
    "IntMatrix",
    "LinearForm",
    "MinorSweep",
    "ParikhContext",
    "ParikhFold",
    "PatternError",
    "SeqFold",
    "SeqMatrix",
    "check_minor_nonneg",
    "count_factor",
    "count_gapped",
    "count_subword",
    "equivalent",
    "equivalent_bounded",
    "evaluate",
    "factor_starts",
    "linearize",
    "linearize_product",
    "minor_index_set",
    "mono",
    "parikh_matrix",
    "parikh_matrix_direct",
    "parse_expr",
    "parse_word",
    "red",
    "seq_matrix",
    "seq_matrix_direct",
    "special_minor",
    "special_minor_from_matrix",
    "verify_witness",
    "witness_parikh_matrix",
    "witness_text",
    "witness_word",
]

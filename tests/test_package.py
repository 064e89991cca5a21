import ast
from pathlib import Path

import parikhseq

PACKAGE = Path(parikhseq.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # invariants must survive python -O, which strips assert statements
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_cached_functions_in_library():
    # a decorator cache lives as long as the process; memos belong to one call
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("lru_cache", "cache"):
                        found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


PUBLIC_API = [
    "Alphabet", "EPSILON", "Expr", "GapPattern", "IntMatrix", "LinearForm",
    "MinorSweep", "ParikhContext", "ParikhFold", "PatternError", "SeqFold",
    "SeqMatrix", "check_minor_nonneg", "count_factor", "count_gapped",
    "count_subword", "equivalent", "equivalent_bounded", "evaluate",
    "factor_starts", "linearize", "linearize_product", "minor_index_set",
    "mono", "parikh_matrix", "parikh_matrix_direct", "parse_expr",
    "parse_word", "red", "seq_matrix", "seq_matrix_direct", "special_minor",
    "special_minor_from_matrix", "verify_witness", "witness_parikh_matrix",
    "witness_text", "witness_word",
]


def test_public_api_is_pinned():
    # a name added to or dropped from __all__ is a deliberate change here too
    assert len(PUBLIC_API) == 37
    assert sorted(parikhseq.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        getattr(parikhseq, name)

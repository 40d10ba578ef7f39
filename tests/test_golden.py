"""The reference tables live once, in tiledag.golden: the tests, the CLI's
--check and the benchmark all read that copy."""

import ast
import hashlib
from pathlib import Path

from tiledag import golden

TABLES = (golden.COARSE_15x6, golden.TILED_15x6, golden.GREEDY_CP_P40,
          golden.FIBONACCI_CP_P40, golden.PLASMATREE_CP_P40, golden.CHOL_BOUNDS_T5)
TABLES_SHA256 = "f98f1bef3f6d6f82fceabfd96183cb0346363ff1c4687c85dc46a4bdd1339a17"


def _literals(path):
    """Every list or dict literal in a Python file, evaluated."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.List, ast.Dict)):
            try:
                yield node.lineno, ast.literal_eval(node)
            except ValueError:
                pass


def test_golden_tables_pinned_and_stated_once():
    # an edit to a reference value must fail here, whatever else reads it
    assert hashlib.sha256(repr(TABLES).encode()).hexdigest() == TABLES_SHA256
    # and no test may type a table, a p=40 column or a scheme's rows again
    copies = list(TABLES) + list(golden.COARSE_15x6.values()) + \
        list(golden.TILED_15x6.values())
    found = [(path.name, line) for path in sorted(Path(__file__).parent.glob("*.py"))
             for line, value in _literals(path) if value in copies]
    assert found == []

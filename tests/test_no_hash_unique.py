"""Guard: no plain ``np.unique`` in the library.

On NumPy 2.x, ``np.unique(keys)`` and ``np.unique_values(keys)`` without
``return_index``/``return_inverse``/``return_counts`` take a hash-table
path that is ~60x slower than sorting on the millions of integer keys a
CSR rebuild or a BFS shell produces (1.8 s against 0.03 s for the 1.6 M
directed keys of n = 1e5, d = 8).  The library deduplicates through
:func:`repro.core.csr.sorted_unique` instead; this test keeps it that way.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent
SORT_PATH_FLAGS = {"return_index", "return_inverse", "return_counts"}


def _hash_path_lines(source: str) -> list[int]:
    """Line numbers of plain ``np.unique``/``np.unique_values`` calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("unique", "unique_values")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        if node.func.attr == "unique" and any(
            keyword.arg in SORT_PATH_FLAGS for keyword in node.keywords
        ):
            continue
        lines.append(node.lineno)
    return sorted(lines)


def test_library_has_no_hash_path_unique():
    offenders = [
        f"{path.relative_to(SOURCE_ROOT)}:{line}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for line in _hash_path_lines(path.read_text())
    ]
    assert not offenders, (
        "plain np.unique/np.unique_values takes NumPy's hash path, ~60x "
        "slower than sorting on large integer keys; deduplicate with "
        "repro.core.csr.sorted_unique (or pass return_index/"
        f"return_inverse/return_counts): {offenders}"
    )


def test_guard_flags_only_plain_calls():
    source = (
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b = np.unique_values(x)\n"
        "c = np.unique(x, return_counts=True)\n"
        "d = sorted_unique(x)\n"
    )
    assert _hash_path_lines(source) == [2, 3]

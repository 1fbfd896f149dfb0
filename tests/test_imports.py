"""The package depends on numpy only: every import in src/germoid names the
standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import germoid

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "germoid"}


def _imported_roots(tree):
    """(line, top-level module) for each absolute import; relative imports
    are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_numpy_or_the_package():
    files = sorted(Path(germoid.__file__).parent.rglob("*.py"))
    assert len(files) > 10
    outside = [
        f"{path.name}:{line}: {root}"
        for path in files
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED
    ]
    assert not outside, outside


def test_the_scan_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom . import perms\nimport scipy.linalg\nfrom sympy import S\n")
    assert [root for _line, root in _imported_roots(tree) if root not in ALLOWED] == [
        "scipy", "sympy",
    ]

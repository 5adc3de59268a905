"""Every name a module of the package imports is used in that module, and
no module imports a private part of numpy or scipy.

The unused-import check skips ``__init__.py``: its imports are the
package's exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "swsplit"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [path for path in ALL_MODULES if path.name != "__init__.py"]


def unused_imports(source):
    """(line, name) of every name bound by an import and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom math import inf, pi\nprint(np.pi, inf)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source):
    """(line, dotted path) of every import that reaches a numpy or scipy
    module or name starting with ``_``, such as ``scipy.sparse._sparsetools``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, path) for path in paths
                  if path.split(".")[0] in ("numpy", "scipy")
                  and any(part.startswith("_") for part in path.split("."))]
    return found


def test_checker_flags_a_private_module():
    source = ("import numpy as np\nimport scipy.sparse._sparsetools\n"
              "from scipy.sparse import _sparsetools, csr_matrix\n"
              "from numpy._core import multiarray\nfrom . import _local\nimport _thread\n")
    assert private_imports(source) == [(2, "scipy.sparse._sparsetools"),
                                       (3, "scipy.sparse._sparsetools"),
                                       (4, "numpy._core.multiarray")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_no_private_numpy_or_scipy_import(path):
    assert private_imports(path.read_text()) == []

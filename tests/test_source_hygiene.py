"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "swdesign"

#: ``__init__.py`` imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in used
    )


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_imports(source: str) -> list[str]:
    """Modules imported when the module loads, not inside a function.

    Relative imports are named from the package: ``from . import search``
    and ``from .search import x`` are both ``swdesign.search``.
    """
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = "swdesign" + (f".{node.module}" if node.module else "")
            found += ([(f"{base}.{alias.name}", node.lineno)
                       for alias in node.names] if node.module is None
                      else [(base, node.lineno)])
        elif isinstance(node, ast.ImportFrom):
            found.append((node.module, node.lineno))
        todo += ast.iter_child_nodes(node)
    return sorted(f"{name} (line {line})" for name, line in found)


def test_checker_lists_module_level_imports():
    source = ("import numpy as np\nfrom . import search\n"
              "from .model import Design\nif x:\n    import numpy.linalg\n"
              "def f():\n    import scipy\nclass A:\n    from os import sep\n")
    assert module_imports(source) == [
        "numpy (line 1)", "numpy.linalg (line 5)", "os (line 9)",
        "swdesign.model (line 3)", "swdesign.search (line 2)",
    ]


#: Modules that import numpy when they load.
NUMPY_MODULES = ("numpy", "swdesign.model", "swdesign.inference",
                 "swdesign.search", "swdesign.designspace")


@pytest.mark.parametrize("name,heavy", [
    ("analytic.py", ("numpy",)),
    ("cli.py", NUMPY_MODULES),
    ("__init__.py", NUMPY_MODULES),
])
def test_front_modules_load_no_numpy(name, heavy):
    # A cold `swdesign analytic` and a bare `import swdesign.cli` load
    # neither numpy nor the compute modules; commands import those on use.
    imports = module_imports((SRC / name).read_text(encoding="utf-8"))
    assert [entry for entry in imports
            if entry.split()[0].startswith(heavy)] == []


def statistics_imports(source: str) -> list[str]:
    """Imports of the standard library's ``statistics``, wherever they are."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "statistics"]
    return sorted(found)


def test_checker_flags_statistics_imports():
    source = ("import os, statistics\nfrom statistics import NormalDist\n"
              "def f():\n    import statistics as st\n"
              "from .statistics import x\nimport statistics_extra\n")
    assert statistics_imports(source) == [
        "statistics (line 1)", "statistics (line 2)", "statistics (line 4)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_statistics(path):
    # The normal quantile is AS241 for scalars and arrays alike (inference);
    # statistics would also load fractions and decimal into every command.
    assert statistics_imports(path.read_text(encoding="utf-8")) == []


def dense_calls(source: str) -> list[str]:
    """Matrix products (``@``, a BLAS call) and ``linalg.det`` (LAPACK)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append(f"@ (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr == "det"
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"):
            found.append(f"linalg.det (line {node.lineno})")
    return sorted(found)


def test_checker_flags_products_and_determinants():
    source = "import numpy as np\na = b @ c\na @= c\nd = np.linalg.det(a)\n"
    assert dense_calls(source) == [
        "@ (line 2)", "@ (line 3)", "linalg.det (line 4)",
    ]


def test_search_makes_no_blas_or_lapack_call():
    # Candidates are scored from gathered statistics on entry vectors; a
    # product or a determinant call would bring BLAS or LAPACK back.
    assert dense_calls((SRC / "search.py").read_text(encoding="utf-8")) == []


def linalg_calls(source: str) -> list[str]:
    """Functions read from ``linalg`` (``np.linalg.eigh`` and the like)."""
    return sorted(
        f"linalg.{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    )


def test_checker_flags_linalg_calls():
    source = "import numpy as np\nw, v = np.linalg.eigh(a)\nb = a @ c\n"
    assert linalg_calls(source) == ["linalg.eigh (line 2)"]


def test_model_makes_no_linalg_call():
    # The kernel and the non-identifiable error message both read the LDL'
    # pivots of P; the p x p references that need LAPACK are in the tests.
    assert linalg_calls((SRC / "model.py").read_text(encoding="utf-8")) == []


def test_search_leaves_identifiability_to_the_kernel_sums():
    # model.kernel_sums decides identifiability once per candidate; the
    # search only reads its mask.
    source = (SRC / "search.py").read_text(encoding="utf-8")
    assert "RANK_RTOL" not in source and "_pivots" not in source


def lambda_stacks(source: str) -> list[str]:
    """``diagonal`` reads and arrays allocated with a three-entry shape."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "diagonal":
            found.append(f"diagonal (line {node.lineno})")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("empty", "zeros", "ones", "full")
              and node.args and isinstance(node.args[0], ast.Tuple)
              and len(node.args[0].elts) == 3):
            found.append(f"{node.func.attr} (line {node.lineno})")
    return sorted(found)


def test_checker_flags_diagonals_and_stacks():
    source = ("import numpy as np\nd = np.diagonal(L, axis1=1, axis2=2)\n"
              "L = np.empty((k, q, q))\nM = np.zeros((q, q))\n")
    assert lambda_stacks(source) == ["diagonal (line 2)", "empty (line 3)"]


def test_scan_path_keeps_lambda_as_entry_vectors():
    # The kernel returns Lambda_q as q x q entry vectors and the search
    # reads them as such: no k x q x q stack and no diagonal of one.
    import inspect

    from swdesign import model

    kernel = "".join(inspect.getsource(f) for f in (
        model.kernel_sums, model._centred, model._pivots, model.determinant,
        model.covariance_kernel,
    ))
    assert lambda_stacks(kernel) == []
    assert lambda_stacks((SRC / "search.py").read_text(encoding="utf-8")) == []

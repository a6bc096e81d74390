import ast
from pathlib import Path

import chiralmeta

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(chiralmeta.__file__).resolve().parent

# Exported references that no program module uses: each is kept as the
# closed form or loader that a test checks the live path against.
REFERENCES = ("linear_wave", "maxwell_dyadic", "epsc_from_s", "tilde_leading_order",
              "spectrum_from_json", "drude_eps", "polarization_tensor")


def referenced_names(path):
    """Every name read in ``path`` as an AST Name or Attribute (docstrings,
    comments and definitions do not count)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))}


def called_names(path):
    """Every name called in ``path``, as ``f(...)`` or ``x.f(...)``."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return calls


def test_exports_resolve():
    missing = [name for name in chiralmeta.__all__ if not hasattr(chiralmeta, name)]
    assert not missing


def test_exports_unique():
    names = chiralmeta.__all__
    assert len(set(names)) == len(names)


def test_every_export_backs_a_live_path():
    # README: every name in __all__ backs a CLI command or a check that a
    # test runs against a live path.  An export that no program module
    # reads is one of the kept references, and a test calls it.
    used = set().union(*(referenced_names(p) for p in PACKAGE.glob("*.py")
                         if p.name != "__init__.py"))
    unused = {name for name in chiralmeta.__all__
              if not name.startswith("__") and name not in used}
    assert unused <= set(REFERENCES), sorted(unused - set(REFERENCES))
    tested = set().union(*(called_names(p) for p in TESTS.glob("test_*.py")))
    assert set(REFERENCES) <= tested, sorted(set(REFERENCES) - tested)

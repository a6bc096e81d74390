import ast
from pathlib import Path

import chiralmeta

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(chiralmeta.__file__).resolve().parent

# Exported references that no program module uses, each with the live path
# that a test checks it against: the closed form or loader and its program twin.
REFERENCES = {
    "maxwell_dyadic": "green_dyadic",
    "tilde_leading_order": "tilde_from_definition",
    "epsc_from_s": "shifted_resonances",
    "drude_eps": "drude_omega_for_eps",
    "polarization_tensor": "dipole_response_tensor",
    "spectrum_from_json": "to_json_dict",
}


def referenced_names(path):
    """Every name read in ``path`` as an AST Name or Attribute (docstrings,
    comments and definitions do not count)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))}


def program_reads():
    """Every name read by a program module (``__init__`` only re-exports)."""
    return set().union(*(referenced_names(p) for p in PACKAGE.glob("*.py")
                         if p.name != "__init__.py"))


def called_names(tree):
    """Every name called in the AST ``tree``, as ``f(...)`` or ``x.f(...)``."""
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return calls


def calls_per_test():
    """The names each module-level test function calls, one set per function."""
    return [called_names(node) for p in TESTS.glob("test_*.py")
            for node in ast.parse(p.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]


def test_exports_resolve():
    missing = [name for name in chiralmeta.__all__ if not hasattr(chiralmeta, name)]
    assert not missing


def test_exports_unique():
    names = chiralmeta.__all__
    assert len(set(names)) == len(names)


def test_every_export_backs_a_live_path():
    # README: every name in __all__ backs a CLI command or a check that a
    # test runs against a live path.  An export that no program module
    # reads is one of the kept references, each checked by a test below.
    used = program_reads()
    unused = {name for name in chiralmeta.__all__
              if not name.startswith("__") and name not in used}
    assert unused <= set(REFERENCES), sorted(unused - set(REFERENCES))


def test_every_reference_is_checked_against_its_live_path():
    # a kept reference earns its place only where one test calls it next to
    # the program path it checks, and that path is one the program reads
    used = program_reads()
    assert set(REFERENCES.values()) <= used, sorted(set(REFERENCES.values()) - used)
    calls = calls_per_test()
    unchecked = sorted(f"{ref} -> {live}" for ref, live in REFERENCES.items()
                       if not any({ref, live} <= names for names in calls))
    assert not unchecked, unchecked


def test_every_public_definition_backs_a_live_path():
    # the export check above sees only __all__; a module-level function or
    # class without a leading underscore must be read by a program module
    # (its own included) or be one of the kept references
    used = program_reads()
    unused = sorted(f"{p.stem}.{node.name}" for p in PACKAGE.glob("*.py")
                    for node in ast.parse(p.read_text(encoding="utf-8")).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used and node.name not in REFERENCES)
    assert not unused, unused


def writes_file(call):
    """Whether ``call`` writes a file: ``json.dump``, ``write_text``,
    ``write_bytes``, or ``open`` with a mode that is not read-only."""
    func = call.func
    if isinstance(func, ast.Attribute):
        name, mode = func.attr, call.args[:1]                # path.open(mode)
    else:
        name, mode = getattr(func, "id", None), call.args[1:2]   # open(path, mode)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "dump":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"
    mode += [k.value for k in call.keywords if k.arg == "mode"]
    return name == "open" and bool(mode) and not (
        isinstance(mode[0], ast.Constant) and set(str(mode[0].value)) <= set("rbt"))


def file_writes(path):
    """(enclosing function or method, line) of every call in ``path`` that
    writes a file."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and writes_file(child):
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_artifacts_written_only_by_the_cli_writers():
    # README: every artifact, np_spectrum.json included, is rendered by one
    # of the CLI's two writers, so no other code writes a file
    writes = {(p.stem, where) for p in PACKAGE.glob("*.py") for where, _ in file_writes(p)}
    assert writes == {("cli", "write_csv"), ("cli", "write_json")}, sorted(writes)

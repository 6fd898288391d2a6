"""Source hygiene: every name a kcmt module imports is used or exported,
lemma enumeration imports no theory arithmetic, no walker over a compiled
circuit or a lemma walk calls itself, and every text file is opened as
UTF-8."""

import ast
from pathlib import Path

import pytest

import kcmt

PACKAGE = Path(kcmt.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_the_walk_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Iterator\n"
                          "__all__ = ['os']\n") == ["Iterator (line 2)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def self_calls(source: str) -> list[str]:
    """Functions that call themselves by name, as `f(...)` or `x.f(...)`
    anywhere in the body of `f`."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and fn.name == getattr(
                    node.func, "id", getattr(node.func, "attr", None)):
                out.append("%s (line %d)" % (fn.name, node.lineno))
                break
    return out


def test_the_walk_sees_a_self_call():
    assert self_calls("def f(n):\n    return f(n - 1)\n") == ["f (line 2)"]
    assert self_calls("class C:\n    def g(self):\n"
                      "        def rec():\n            return self.g()\n"
                      "        return rec\n") == ["g (line 4)"]
    assert self_calls("def f():\n    return g()\n") == []


# A compiled circuit, and the lemma walk's path, can be as deep as the atom
# set is large, so walkers over them must not use the interpreter's stack.
@pytest.mark.parametrize("name", ["compiler.py", "lemmas.py", "nnf_io.py",
                                  "obdd.py", "queries.py"])
def test_no_circuit_walker_calls_itself(name):
    assert self_calls((PACKAGE / name).read_text()) == []


def test_lemma_enumeration_imports_no_theory_arithmetic():
    # Which point is a model is the theory's business: the walk asks the
    # backend's witness, so it works for any theory.
    imported = set()
    source = (PACKAGE / "lemmas.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module or "").endswith("theory"):
                imported |= names
            else:
                assert "theory" not in names
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("theory") for a in node.names)
    assert imported == {"LraBackend", "minimize_conflict"}


def text_opens_without_utf8(source: str) -> list[str]:
    """Calls that open a file as text, `open(...)` in a mode without "b" or
    `x.read_text(...)`/`x.write_text(...)`, but do not pass
    `encoding="utf-8"`, so that decoding would follow the locale."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            name = "open"
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("read_text", "write_text"):
            name = node.func.attr
        else:
            continue
        encoding = next((k.value for k in node.keywords
                         if k.arg == "encoding"), None)
        if not (isinstance(encoding, ast.Constant)
                and encoding.value == "utf-8"):
            out.append("%s (line %d)" % (name, node.lineno))
    return out


def test_the_walk_sees_a_locale_dependent_open():
    assert text_opens_without_utf8(
        "open(p)\nopen(p, 'w', encoding='latin-1')\nopen(p, 'rb')\n"
        "open(p, mode='wb')\nopen(p, encoding='utf-8')\n"
        "q.read_text()\nq.write_text(t, encoding='utf-8')\n") == [
            "open (line 1)", "open (line 2)", "read_text (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_text_file_is_opened_as_utf8(path):
    assert text_opens_without_utf8(path.read_text(encoding="utf-8")) == []


# Public names that only tests call, the references the tests check the
# pipeline against, and the names that only those references read.
TEST_REFERENCES = ("count_allsmt", "refine", "rules_out", "validate",
                   "evaluate", "structurally_equal", "check_treduced",
                   "check_textended", "evaluate_literal", "is_total_over",
                   "ValidationReport")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bound_names(fn) -> set[str]:
    """The arguments of a function, the bare names its own body assigns and
    the functions and classes it defines, but nothing bound inside those."""
    args = fn.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            out.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return out


def names_read(source: str, imports: bool) -> set[str]:
    """Names a module loads, bare or as an attribute, and with `imports`
    also the names it imports. A bare name that an enclosing function binds
    is a local, not a read, and nothing inside the definition of a name in
    TEST_REFERENCES is a read."""
    out = set()
    todo = [(ast.parse(source), frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name in TEST_REFERENCES:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            local = local | bound_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        todo.extend((child, local) for child in ast.iter_child_nodes(node))
    return out


def test_the_scan_sees_what_a_module_reads():
    source = "from a import b\ndef f():\n    return g\ny.h\nz.k = 1\n"
    assert names_read(source, imports=False) == {"g", "y", "h", "z"}
    assert names_read(source, imports=True) == {"b", "g", "y", "h", "z"}
    # A local that shadows a module-level name reads nothing.
    source = ("def apply():\n    pass\n"
              "def f(m, x):\n    apply = m.and_\n"
              "    def g():\n        return apply(x, y)\n    return g\n")
    assert names_read(source, imports=False) == {"and_", "y"}
    # Nothing inside a reference's definition is read.
    assert names_read("def validate(x):\n    return check(x)\n"
                      "validate(1)\n", imports=False) == {"validate"}


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            used |= names_read(path.read_text(encoding="utf-8"), False)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= names_read(path.read_text(encoding="utf-8"), True)
    assert [name for name in kcmt.__all__
            if name not in used and name not in TEST_REFERENCES] == []


def public_definitions(source: str) -> list[str]:
    """The undecorated public functions and classes of a module, and the
    undecorated public methods of its classes."""
    out = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.ClassDef):
            todo.extend(node.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) \
                and not node.decorator_list and not node.name.startswith("_"):
            out.append(node.name)
    return out


def test_the_scan_sees_an_unread_method():
    source = ("class C:\n    def read(self):\n        return 1\n"
              "    def unread(self):\n        return 2\n"
              "    @property\n    def shown(self):\n        return 3\n"
              "    def _own(self):\n        return 4\n"
              "def f():\n    return C().read()\n")
    assert public_definitions(source) == ["C", "f", "read", "unread"]
    used = names_read(source, False)
    assert [name for name in public_definitions(source)
            if name not in used] == ["f", "unread"]


def test_every_public_definition_has_a_caller_outside_the_tests():
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            used |= names_read(path.read_text(encoding="utf-8"), False)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= names_read(path.read_text(encoding="utf-8"), True)
    assert ["%s.%s" % (path.stem, name) for path in MODULES
            for name in public_definitions(path.read_text(encoding="utf-8"))
            if name not in used and name not in TEST_REFERENCES] == []

"""Every name a library module imports is used in that module, and every
name the library defines (a function, class or module-level constant) is
used somewhere in the repository; a method only counts as used where its
module is, or is imported, or where the base-class method it overrides is
used.  A re-export, by an import or in ``__all__``, is not a use.  No
code asks a field object for scalar arithmetic: scalars meet with
``+ - *``."""

import ast
import re
from pathlib import Path

import pytest

from cubiclifford.fields import PrimeField, RationalField

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubiclifford"


def unused_imports(source):
    """Names bound by import statements that the module never loads,
    excluding names it re-exports through ``__all__``."""
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
    exported = {e.value for e in _all_strings(tree)}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_unused_names():
    source = ("import os\nimport os.path as osp\nfrom .a import b, c\n"
              "from __future__ import annotations\n__all__ = ['c']\n"
              "print(osp.join)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def _all_strings(tree):
    """The string nodes of a module's ``__all__`` assignment."""
    return [e for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for e in node.value.elts]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(source):
    """Module-level functions, classes and non-dunder constants, and the
    non-dunder methods of those classes, as (qualified name, name)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        elif isinstance(node, ast.Assign):
            out.extend((t.id, t.id) for t in node.targets
                       if isinstance(t, ast.Name) and not _is_dunder(t.id))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item.name)
                       for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not _is_dunder(item.name))
    return out


def _dotted_string(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value))


def referenced_names(source):
    """Names a module loads, attributes it reads, and the parts of
    dotted-name strings (as in ``getattr`` or the benchmark's trace
    targets).  The names it assigns are not uses, and the names it
    imports and the strings of its ``__all__`` only re-export them."""
    tree = ast.parse(source)
    exports = set(map(id, _all_strings(tree)))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif _dotted_string(node) and id(node) not in exports:
            out.update(node.value.split("."))
    return out


def imported_modules(source):
    """The parts of every module path a source imports, by an import
    statement or by a dotted-name string (as ``importlib`` targets), and
    the names it imports from a package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(part for alias in node.names
                       for part in alias.name.split("."))
        elif _dotted_string(node):
            out.update(node.value.split("."))
    return out


def class_bases(source):
    """Each module-level class's base-class names and method names."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                     for b in node.bases]
            methods = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)}
            out[node.name] = (bases, methods)
    return out


def unreferenced_definitions(defining, referencing):
    """(module, qualified name) of every name defined in the ``defining``
    sources that none of the ``referencing`` sources uses.  A method
    counts as used only in its own module or in one that imports it: an
    attribute of the same name read elsewhere belongs to another type.
    A method that overrides one of a base class (a class of the
    ``defining`` sources) counts as used wherever the base method is."""
    names = {m: referenced_names(s) for m, s in referencing.items()}
    imports = {m: imported_modules(s) for m, s in referencing.items()}
    used = set().union(*names.values())
    classes = {cls: (module, bases, methods)
               for module, source in defining.items()
               for cls, (bases, methods) in class_bases(source).items()}

    def method_used(module, cls, name):
        stem = Path(module).stem
        return (any(name in names[m] for m in referencing
                    if m == module or stem in imports[m])
                or any(base in classes and name in classes[base][2]
                       and method_used(classes[base][0], base, name)
                       for base in classes[cls][1]))

    return sorted((module, qual)
                  for module, source in defining.items()
                  for qual, name in defined_names(source)
                  if not (method_used(module, qual.split(".")[0], name)
                          if "." in qual else name in used))


def test_every_library_name_is_referenced():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    library = {m: s for m, s in sources.items() if m.startswith("src/")}
    assert unreferenced_definitions(library, sources) == []


def test_scanner_flags_unreferenced_definitions():
    lib = ("class A:\n    def used(self): pass\n    def dead(self): pass\n"
           "    def stale(self): pass\n    def __len__(self): return 0\n"
           "def traced(): pass\ndef orphan(): pass\nclass Gone: pass\n"
           "class Base:\n    def run(self): return self.hook()\n"
           "    def hook(self): pass\nLIMIT = 3\nSPARE = 4\n__version__ = 1\n")
    # Sub.hook is called only through Base.run, in lib, which does not
    # import sub; Sub.spare is called nowhere
    sub = ("from lib import Base\nclass Sub(Base):\n"
           "    def hook(self): return 1\n    def spare(self): pass\n")
    user = ("from lib import A\nA().used()\nTARGETS = ('mod.traced',)\n"
            "from sub import Sub\nSub().run()\n")
    # reads an attribute named like A.stale without importing lib
    other = "def f(args):\n    return args.stale\n"
    # re-exports SPARE, which no module uses
    package = ("from lib import SPARE, LIMIT\n__all__ = ['SPARE']\n"
               "print(LIMIT)\n")
    sources = {"lib": lib, "sub": sub, "user": user, "other": other,
               "package": package}
    assert unreferenced_definitions({"lib": lib, "sub": sub}, sources) == [
        ("lib", "A.dead"), ("lib", "A.stale"), ("lib", "Gone"),
        ("lib", "SPARE"), ("lib", "orphan"), ("sub", "Sub.spare")]


#: Arithmetic a field does not supply: scalars are combined with + - *
SCALAR_METHODS = {"add", "sub", "neg", "mul", "div"}
#: The names that hold a field object in the library and the tests
FIELD_NAMES = {"F", "field", "f7", "f11", "f13", "f31", "Q", "rationals",
               "fp", "fq"}


def field_method_calls(source):
    """(line, "name.method") of each call of a scalar-arithmetic method on
    a name that holds a field."""
    return sorted(
        (node.lineno, f"{node.func.value.id}.{node.func.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in SCALAR_METHODS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in FIELD_NAMES)


def test_fields_supply_no_scalar_arithmetic():
    for cls in (PrimeField, RationalField):
        assert [m for m in sorted(SCALAR_METHODS) if hasattr(cls, m)] == []


def test_scalars_are_combined_with_operators():
    found = {}
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            calls = field_method_calls(path.read_text())
            if calls:
                found[path.relative_to(ROOT).as_posix()] = calls
    assert found == {}


def test_scanner_flags_field_method_calls():
    # polynomial methods (p.mul, z.z4.sub) and field.of are not flagged
    source = ("F.mul(a, b)\nfield.neg(c)\np.mul(q)\nF.of(a * b)\n"
              "z.z4.sub(w)\nf13.add(1, 2)\n")
    assert field_method_calls(source) == [(1, "F.mul"), (2, "field.neg"),
                                          (6, "f13.add")]

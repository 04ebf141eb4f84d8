"""Source hygiene: no `assert` in the package, no unused imports, no
function without a reader in the package beyond a pinned few, every entry
point that takes a weight with a system or an element checks that they
belong together, Fractions only where a denominator is real (only two
modules import them, and there only views and input checks name them), and
the fixture suite passes under `python -O`.

The package checks its invariants by raising `InvariantViolation`, because
`python -O` strips `assert` statements; these tests keep it that way.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomic

PACKAGE = Path(atomic.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports names to re-export them
SCANNED_FILES = [p for p in PACKAGE_FILES if p.name != "__init__.py"] + sorted(
    TESTS.glob("*.py")
)


def _ids(paths):
    return [f"{p.parent.name}/{p.name}" for p in paths]


def unused_imports(tree):
    """Names bound by an import statement and never read in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names in quoted annotations such as -> "Weight"
    read |= {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=_ids(PACKAGE_FILES))
def test_package_has_no_assert(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SCANNED_FILES, ids=_ids(SCANNED_FILES))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    assert unused_imports(tree) == []


def test_unused_import_scan_sees_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom math import gcd, lcm\n"
        "def f(x) -> 'Iterable':\n    return lcm(x, 2)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "system"), (4, "gcd")]


# package functions and methods that no package code reads, each kept for
# a reader outside it; a new one needs a reader or a reason here
UNREAD_FUNCTIONS = {
    "rootdata.RootSystem.inner_product": "Fraction view of the form, the tests' reference",
    "rootdata.RootSystem.coroot_pairing": "Fraction view of <x, beta^vee>, a test reference",
    "perms.statistics": "one validated permutation, the reference for statistics_table",
    "affine.act_element_on_weight": "the tests' reference for the weight action",
    "affine.alcove_point": "Fraction view of x0, the reference for the scaled alcove point",
    "affine.orbit_depth_histogram": "benchmark entry point, the walk lattice counts meet",
    "weyl.reduced_words": "test reference: every reduced word of an element",
}


def _defined_functions(tree):
    """(qualified name, node) of the functions and methods at module and
    class level; dunder methods are read by the language, not by name."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for item in node.body if is_class else [node]:
            name = getattr(item, "name", "")
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                name.startswith("__") and name.endswith("__")
            ):
                yield (f"{node.name}." if is_class else "") + name, item


def unread_functions(trees):
    """module.name of each function and method that no code in `trees`
    ({module: tree}) reads outside its own body, as a name, an attribute or
    an imported name, so that a re-export in __init__ counts as a reader."""
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                reads.setdefault(name, []).append(id(node))
    unread = []
    for module, tree in trees.items():
        for qualified, node in _defined_functions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if all(r in inside for r in reads.get(node.name, ())):
                unread.append(f"{module}.{qualified}")
    return sorted(unread)


def test_every_package_function_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE_FILES}
    assert unread_functions(trees) == sorted(UNREAD_FUNCTIONS)


def test_reader_scan_sees_unread_functions():
    trees = {
        "m": ast.parse(
            "def f():\n    return f()\ndef g():\n    return h\nh = 1\n"
            "class C:\n    def __eq__(self, other):\n        return True\n"
            "    def k(self):\n        return self.k\n    def j(self):\n        pass\n"
        ),
        "__init__": ast.parse("from .m import g\n"),
    }
    # f and C.k read only themselves, C.j nothing; g is re-exported
    assert unread_functions(trees) == ["m.C.j", "m.C.k", "m.f"]


# an entry point takes a weight together with a system or an element, read
# from its annotations (a method's `self` has its class's type), and checks
# that they belong together by one of these calls
WEIGHT_TYPES = {"Weight", "AffineWeight"}
SYSTEM_TYPES = {"RootSystem", "WeylElement", "AffineElement"}
SYSTEM_CHECKS = {"require_dominant_in", "same_system"}
WEIGHT_ENTRY_POINTS = {
    "rootdata.Weight.require_dominant_in",
    "weyl.WeylElement.act_weight",
    "atomiclen.lambda_atomic_length",
    "atomiclen.lambda_inversion_set",
    "atomiclen.image_set",
    "atomiclen.atomic_length_w0",
    "atomiclen.is_ideal",
    "affine.AffineWeight.require_dominant_in",
    "affine.act_element_on_weight",
    "affine.affine_atomic_length",
    "affine.orbit_depth_histogram",
    "affine.affine_image_probe",
}


def _type_name(annotation):
    if isinstance(annotation, ast.Constant):  # a quoted annotation
        return annotation.value
    if isinstance(annotation, ast.Attribute):  # module.Type
        return annotation.attr
    return getattr(annotation, "id", None)


def weight_entry_points(tree):
    """{qualified name: whether it calls one of SYSTEM_CHECKS} over the
    public functions and methods that take a weight together with a system
    or an element."""
    found = {}
    for qualified, node in _defined_functions(tree):
        if any(part.startswith("_") for part in qualified.split(".")):
            continue
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        types = {_type_name(a.annotation) for a in args}
        if "." in qualified and args:
            types.add(qualified.split(".")[0])  # self
        if types & WEIGHT_TYPES and types & SYSTEM_TYPES:
            called = {
                getattr(n.func, "attr", getattr(n.func, "id", None))
                for n in ast.walk(node)
                if isinstance(n, ast.Call)
            }
            found[qualified] = bool(called & SYSTEM_CHECKS)
    return found


def test_weight_entry_points_check_the_system():
    found = {}
    for p in PACKAGE_FILES:
        tree = ast.parse(p.read_text(), str(p))
        found |= {f"{p.stem}.{name}": ok for name, ok in weight_entry_points(tree).items()}
    assert sorted(name for name, ok in found.items() if not ok) == []
    # a new entry point is listed here, and one that drops its annotations is missed
    assert set(found) == WEIGHT_ENTRY_POINTS


def test_entry_point_scan_sees_unchecked_weights():
    tree = ast.parse(
        "def f(system: RootSystem, lam: Weight):\n    return lam.fund\n"
        "def g(w: 'WeylElement', lam: Weight):\n    lam.require_dominant_in(w.system)\n"
        "def h(system: rootdata.RootSystem, mu: AffineWeight):\n"
        "    same_system(mu.system, system)\n"
        "def _p(system: RootSystem, lam: Weight):\n    pass\n"
        "def k(lam: Weight, i: int):\n    pass\n"
        "class AffineElement:\n    def act(self, mu: 'AffineWeight'):\n        pass\n"
        "    def _act(self, mu: AffineWeight):\n        pass\n"
        "class Weight:\n    def at(self, system: RootSystem):\n        pass\n"
    )
    # f, AffineElement.act and Weight.at take a weight with a system or an
    # element and check nothing; _p and _act are private, k has no system
    assert weight_entry_points(tree) == {
        "f": False, "g": True, "h": True, "AffineElement.act": False, "Weight.at": False
    }


def imported_modules(tree):
    """Top-level names of the modules a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_rootdata_and_affine_import_fractions():
    # rational values are real in root coordinates of weights, the form and
    # the probe's bounds; every exact division elsewhere goes through
    # linalg.exact_div on integers
    importers = [
        p.name for p in PACKAGE_FILES
        if "fractions" in imported_modules(ast.parse(p.read_text(), str(p)))
    ]
    assert importers == ["affine.py", "rootdata.py"]


# the views and input checks allowed to name Fraction: everything else,
# set-up included, runs on integers
FRACTION_VIEWS = {
    "rootdata.py": {
        "RootSystem.root_coords",
        "RootSystem.inner_product",
        "RootSystem.coroot_pairing",
        "integral_coords",
        "Weight.root",
    },
    "affine.py": {"AffineWeight.finite", "alcove_point"},
}


def fraction_scopes(tree):
    """Qualified names of the innermost function or class around each use
    of the name Fraction ("" at module level); imports are not uses."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                if isinstance(child, ast.Name) and child.id == "Fraction":
                    scopes.append(scope)
                visit(child, scope)

    visit(tree, "")
    return scopes


@pytest.mark.parametrize("name", sorted(FRACTION_VIEWS))
def test_fractions_only_in_views(name):
    tree = ast.parse((PACKAGE / name).read_text(), name)
    outside = [s for s in fraction_scopes(tree) if s not in FRACTION_VIEWS[name]]
    assert outside == [], f"Fraction named in {name} outside its views: {outside}"


def test_fraction_scan_sees_every_scope():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "X = Fraction(1)\n"
        "class C:\n    def f(self) -> 'Fraction':\n        return Fraction(2)\n"
        "    y: Fraction = 0\n"
        "def g(x: Fraction):\n    def h():\n        return Fraction(3)\n"
    )
    assert fraction_scopes(tree) == ["", "C.f", "C", "g", "g.h"]


def test_cli_imports_the_tables_only_when_verify_runs():
    script = (
        "import sys, atomic.cli\n"
        "loaded = 'atomic.fixtures' in sys.modules\n"
        "code = atomic.cli.main(['verify'])\n"
        "print(loaded, code, 'atomic.fixtures' in sys.modules)\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(PACKAGE.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
    )
    assert result.stdout.decode().splitlines()[-1] == "False 0 True", result.stderr.decode()


def test_verify_passes_under_optimized_mode():
    env = dict(
        os.environ,
        PYTHONPATH=str(PACKAGE.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )

    def verify(*flags):
        return subprocess.run(
            [sys.executable, *flags], capture_output=True, env=env, timeout=120
        )

    result = verify("-O", "-m", "atomic.cli", "verify")
    out = result.stdout.decode()
    assert result.returncode == 0, out + result.stderr.decode()
    *checks, summary = out.splitlines()
    assert checks and all(line.startswith("PASS  ") for line in checks)
    assert summary == f"{len(checks)}/{len(checks)} checks passed"
    # the JSON report, details included, is the same byte for byte without -O
    optimized = verify("-O", "-m", "atomic.cli", "verify", "--json")
    plain = verify("-m", "atomic.cli", "verify", "--json")
    assert optimized.returncode == plain.returncode == 0
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["failures"] == 0

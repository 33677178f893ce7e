"""The package as a whole: what its import loads, that every name it
exports resolves, and the input checks of library calls that no other test
reaches."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affine_insertion
from affine_insertion.affperm import canonical_reflection, identity, transposition
from affine_insertion.cores import NotACore, bounded_of
from affine_insertion.strong import MarkedStrongCover, NotACover
from affine_insertion.symfunc import DegreeOverflow, SymPolynomial
from affine_insertion.weak import FullSet, InvalidStrip, WeakStrip, is_nice, step_to

SRC = Path(affine_insertion.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))


def test_import_does_not_load_the_oracles():
    # -S: no site hooks, so only the package's own imports count
    code = "import sys, affine_insertion, affine_insertion.cli; print('affine_insertion.oracles' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"affine_insertion.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_export_resolves():
    # each name the package imports from a submodule is one of that module's __all__
    exports = [
        (node.module, alias.name)
        for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert exports
    for module, name in exports:
        assert name in importlib.import_module(f"affine_insertion.{module}").__all__, (module, name)
        assert hasattr(affine_insertion, name), name


E3 = identity(3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: canonical_reflection(3, 1, 4), ValueError, "(1, 4) is not a reflection mod 3"),
    (lambda: transposition(3, 1, 4), ValueError, "(1, 4) is not a reflection mod 3"),
    (lambda: WeakStrip(E3, frozenset(), identity(4)), InvalidStrip, "inside and outside rank differ"),
    (lambda: step_to(3, frozenset({0, 1, 2}), 0, is_nice), FullSet,
     "residue set [0, 1, 2] admits no integer passing is_nice"),
    (lambda: MarkedStrongCover(E3, 0, 1, E3, 0), NotACover, "outside element does not match w * t_ij"),
    (lambda: SymPolynomial(1, {(2,): 1}), DegreeOverflow, "(2,) exceeds degree bound 1"),
    (lambda: bounded_of((2,), 2), NotACore, "(2,) is not a 2-core"),
])
def test_library_input_raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message

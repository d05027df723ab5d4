"""Every public name the package declares resolves."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import relasym
from relasym.reader import ConfigError, Refusal

MODULES = sorted(m.name for m in pkgutil.iter_modules(relasym.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"relasym.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"relasym.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(relasym.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"relasym.{module}")
        assert hasattr(mod, name), f"relasym.{module} has no {name}"
        assert getattr(relasym, name) is getattr(mod, name)


QUADRATURE = {"gauss_rule", "rule_for", "QuadratureRule", "_golub_welsch"}
NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def test_quadrature_stays_in_measures():
    # every construction and check integrates by recurrence algebra; the
    # Gauss rule is the tests' oracle, so no other module may name it
    for path in sorted(Path(relasym.__file__).parent.glob("*.py")):
        if path.stem == "measures":
            continue
        tree = ast.parse(path.read_text())
        names = {getattr(node, NAME_FIELD[type(node)]) for node in ast.walk(tree)
                 if type(node) in NAME_FIELD}
        assert not names & QUADRATURE, f"{path.name} names {sorted(names & QUADRATURE)}"


def test_every_exported_error_is_a_config_error_or_a_refusal():
    # the CLI's exit code follows from this one base class: 3 or 4
    errors = [obj for obj in vars(relasym).values()
              if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(errors) >= 8
    for cls in errors:
        assert issubclass(cls, ConfigError) != issubclass(cls, Refusal), cls

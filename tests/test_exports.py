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


# Top-level definitions no command reaches, each with its reason to stay.
# Anything else no command reaches is test-only and belongs in tests/.
UNREACHED = {
    # paper statements awaiting a law that calls them
    ("pade", "error_ratio"), ("pade", "_identity"), ("extended", "_mp_square_jets"),
    ("joukowski", "kappa_tau_limit"), ("modified", "weak_limit_probe"),
    ("sobolev", "gamma_sequence"),
    ("measures", "minimal_ratios_for"), ("polybasis", "xmul_coeffs"),
    # documented in README
    ("pade", "f_value"), ("pade", "pade_denominator"), ("pade", "pade_numerator"),
    ("modified", "solve_Q"),
    # wrapped by name by perfbench's tracer (gauss_rule with what it calls)
    ("measures", "gauss_rule"), ("measures", "rule_for"), ("measures", "QuadratureRule"),
    ("measures", "_golub_welsch"), ("sobolev", "sn_kernel"),
    # called by CI
    ("scenarios", "scenario_names"),
}


def _imports(nodes) -> dict:
    """name -> (module, attribute) for each relative import in nodes, the
    attribute None for a module imported whole (from . import reader)."""
    out = {}
    for imp in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(imp, ast.ImportFrom) and imp.level == 1:
            for alias in imp.names:
                target = (imp.module, alias.name) if imp.module else (alias.name, None)
                out[alias.asname or alias.name] = target
    return out


def test_every_definition_is_reached_by_a_command_or_kept_for_a_reason():
    # a definition is reached when a reached definition, or a module-level
    # statement of a reached module, names it: directly, through a relative
    # import (module-level or function-local), or as module.attr after
    # "from . import module"; the walk starts at relasym.cli's module level
    root = Path(relasym.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in root.glob("*.py")}
    defs = {(mod, node.name): node for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    statements = {mod: [node for node in tree.body
                        if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
                  for mod, tree in trees.items()}
    bound = {mod: _imports(nodes) for mod, nodes in statements.items()}

    def resolve(mod: str, name):
        """The definition (mod, name) stands for, following re-exports;
        None for a module or a name that is no definition."""
        while (mod, name) not in defs and name in bound[mod]:
            mod, name = bound[mod][name]
        return (mod, name) if (mod, name) in defs else None

    reached, modules, todo = set(), set(), [("cli", None)]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached or mod in modules and name is None:
            continue
        if name is None:
            modules.add(mod)
            nodes = statements[mod]
        else:
            reached.add((mod, name))
            nodes = [defs[mod, name]]
        local = _imports(nodes)
        todo += [(target, None) for target, _ in local.values()]
        names = {**bound[mod], **local}
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            ref = None
            if isinstance(sub, ast.Name):
                ref = (mod, sub.id) if (mod, sub.id) in defs else names.get(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                whole = names.get(sub.value.id)
                if whole is not None and whole[1] is None:     # module.attr
                    ref = (whole[0], sub.attr)
            if ref is not None and (found := resolve(*ref)):
                todo.append(found)
    assert set(defs) - reached == UNREACHED

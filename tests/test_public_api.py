"""Every public name of the package is read by the package itself, or is
library API with a planned reader.

A name is public when it is defined at the top level of an ``asyncfed``
module, or in the body of a public class there, without a leading
underscore. It has a reader when some module of ``src/asyncfed`` other than
``__init__`` loads it, as a name or as an attribute of anything but an
imported outside module (``sys.stderr`` reads no ``stderr`` field).
Assigning a name does not read it, and neither does the ``@name.setter``,
``@name.deleter`` or ``@name.getter`` decorator of a def of that name (a
property's own accessors). Code that only its own tests use is deleted
rather than kept on the list below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "asyncfed"
README = Path(__file__).resolve().parents[1] / "README.md"

# public names without a reader in src/, each with the ROADMAP item that gives it one (or deletes it)
LIBRARY_API = {
    "core.distribution_weights": "item 12: the bound's bias term",
    "core.DistributionWeights.expected": "item 12: the bound's bias term",
    "core.DistributionWeights.expected_normalized": "item 12: the bound's bias term",
    "weights.window_stats": "item 12: the bound's bias term; item 2: the steady-period identity",
    "weights.chi_square_bias": "item 12: the bound's bias term",
    "weights.ChiSquare.unrepresented": "item 12: the bound's bias term",
    "weights.verify_window_assumption": "item 6: the run log's realized-weight check",
    "weights.WindowReport.satisfied": "item 6: the run log's realized-weight check",
    "weights.WindowReport.max_deviation": "item 6: the run log records the max deviation",
    "engine.Trajectory.weight_matrix": "item 6: the run log's realized-weight check",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _defined(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def public_names(modules):
    """``module.name`` and ``module.Class.name`` for every public definition."""
    names = set()
    for module, tree in modules.items():
        for name, node in _defined(tree.body):
            if not name.startswith("_"):
                names.add(f"{module}.{name}")
                if isinstance(node, ast.ClassDef):
                    names.update(f"{module}.{name}.{member}" for member, _ in _defined(node.body)
                                 if not member.startswith("_"))
    return names


_ACCESSORS = ("setter", "deleter", "getter")


def _accessor_names(tree):
    """The ``name`` node of each ``@name.setter``, ``@name.deleter`` or
    ``@name.getter`` decorator on a def of that name."""
    return {
        id(decorator.value)
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Attribute) and decorator.attr in _ACCESSORS
        and isinstance(decorator.value, ast.Name) and decorator.value.id == node.name
    }


def read_names(modules):
    """Every identifier a module loads, as a name or as an attribute of
    anything but a name it imports from outside the package; a property's
    accessor decorators load nothing."""
    loads = set()
    for tree in modules.values():
        accessors = _accessor_names(tree)
        outside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                outside.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                outside.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name) and id(node) not in accessors:
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in outside
            ):
                loads.add(node.attr)
    return loads


def unread_names(modules):
    loads = read_names(modules)
    return {name for name in public_names(modules) if name.rsplit(".", 1)[1] not in loads}


def test_every_public_name_has_a_reader_or_is_library_api():
    unread = unread_names(_modules())
    assert unread - LIBRARY_API.keys() == set(), "no reader in src/: delete it, or list it with its ROADMAP item"


def test_the_library_api_list_is_exact():
    modules = _modules()
    names, loads = public_names(modules), read_names(modules)
    readme = README.read_text()
    for name in LIBRARY_API:
        assert name in names, f"{name} is not defined"
        short = name.rsplit(".", 1)[1]
        assert short not in loads, f"{name} has a reader in src/: take it off the list"
        if name.count(".") == 1:  # a module-level name; a class member is named with its class
            assert f"`{short}" in readme, f"the README's library table does not name {name}"


def test_assignments_outside_attributes_and_accessors_are_not_readers():
    source = """
import sys
from dataclasses import dataclass

LIMIT = 3
USED = 4


@dataclass
class Estimate:
    value: float
    stderr: float
    _level: float = 0.0

    @property
    def level(self) -> float:
        return self._level

    @level.setter
    def level(self, value: float) -> None:
        self._level = value

    @level.deleter
    def level(self) -> None:
        self._level = 0.0

    @property
    def spread(self) -> float:
        return self.value

    @spread.setter
    def spread(self, value: float) -> None:
        self.value = value


def report(est: Estimate) -> None:
    est.value = USED
    print(est.value, est.spread, file=sys.stderr)
"""
    unread = unread_names({"m": ast.parse(source)})
    assert unread == {"m.LIMIT", "m.Estimate.stderr", "m.Estimate.level", "m.report"}

"""The package's module import graph: no cycles, `io` is a leaf above `geom`,
`energy` is a leaf that no other module imports, and private names stay in
their module. Every config field is read somewhere."""

import ast
import dataclasses
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from rigidflow.pipeline import PipelineConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rigidflow"


def _relative_imports(path: Path) -> set:
    """Sibling modules a file imports anywhere: top level, inside functions and
    under `if TYPE_CHECKING`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def _import_graph() -> dict:
    return {
        path.stem: _relative_imports(path) - {"__init__"}
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }


def test_module_imports_are_acyclic():
    graph = _import_graph()
    assert {"pipeline", "refine", "io", "cli"} <= graph.keys()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_io_imports_only_geom():
    # file formats move text and arrays; what a config or a report means is
    # decided by the pipeline and the CLI, which import io, not the reverse
    assert _import_graph()["io"] == {"geom"}


def test_no_package_module_imports_energy():
    # the objective terms are training losses; inference and the CLI read
    # none of them, and only the package root re-exports them for demos
    assert [name for name, deps in _import_graph().items() if "energy" in deps] == []


def _private_imports() -> set:
    """(importer, module, name) for every `from .<module> import _<name>`."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    return found


def test_only_refine_imports_a_private_name():
    # each step has one owner: a module that needs another's internals is one
    # module split in two. ICP's inner loop calls the Kabsch solve on weights
    # it built itself, skipping the checks `weighted_kabsch` makes.
    assert _private_imports() == {("refine", "rigidfit", "_kabsch")}


def test_refine_imports_only_geom_and_rigidfit():
    # ICP registers one segment's points onto a target cloud; which points
    # form a segment is the pipeline's business
    assert _import_graph()["refine"] == {"geom", "rigidfit"}


def test_every_all_entry_resolves():
    # a name left in `__all__` after its definition is deleted breaks
    # `from rigidflow import *`, and nothing else would notice
    for path in sorted(PACKAGE.glob("*.py")):
        name = "rigidflow" if path.stem == "__init__" else f"rigidflow.{path.stem}"
        module = importlib.import_module(name)
        missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
        assert missing == [], f"{name}.__all__ names undefined {missing}"


def _cfg_reads() -> set:
    """Attribute names read as `cfg.<name>` anywhere in the package, outside
    `PipelineConfig` itself."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "PipelineConfig"
            for node in ast.walk(cls)
        }
        found.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"
            and id(node) not in inside
        )
    return found


def test_every_config_field_is_read():
    # a knob that nothing reads does nothing, yet a config file may still set it
    unread = [f.name for f in dataclasses.fields(PipelineConfig) if f.name not in _cfg_reads()]
    assert unread == [], f"PipelineConfig fields nothing reads: {unread}"

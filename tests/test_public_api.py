"""Public API surface sanity.

Every name a package advertises in ``__all__`` must resolve, and the
top-level package must re-export the workhorse entry points.  These tests
catch the classic refactoring failure — a rename that leaves ``__all__``
stale — across the whole library at once.
"""

import ast
import importlib
import pathlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.device",
    "repro.instruments",
    "repro.obs",
    "repro.silicon",
    "repro.sim",
    "repro.soc",
    "repro.thermal",
]


class TestDunderAll:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), package_name
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} is stale"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        package = importlib.import_module(package_name)
        names = list(package.__all__)
        assert len(names) == len(set(names)), f"{package_name} has duplicates"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a module docstring"


class TestTopLevelEntryPoints:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_workhorse_classes_exposed(self):
        import repro

        for name in (
            "CampaignRunner", "Accubench", "Device", "MonsoonPowerMonitor",
            "Thermabox", "paper_fleet", "unconstrained", "fixed_frequency",
        ):
            assert name in repro.__all__

    def test_cli_importable(self):
        from repro.cli import build_parser, main

        assert callable(main)
        assert build_parser().prog == "repro-bench"

    def test_validation_importable(self):
        from repro.validation import validate_study

        assert callable(validate_study)


class TestModuleDocstrings:
    def test_every_source_module_documented(self):
        import pathlib

        import repro

        src_root = pathlib.Path(repro.__file__).parent
        undocumented = []
        for path in sorted(src_root.rglob("*.py")):
            text = path.read_text()
            stripped = text.lstrip()
            if not stripped.startswith(('"""', "'''", 'r"""')):
                undocumented.append(str(path.relative_to(src_root)))
        assert undocumented == []


class TestNoOrphanModules:
    """Every src module is imported, directly or through a package's
    re-exports, by something a user runs: the ``repro-bench`` console
    script, an example, a bench, the benchmark harness or a script.

    Static and import-level: an ``import`` (anywhere in a file, including
    inside functions) is an edge to the module that *defines* the imported
    name, found by following package ``__init__`` re-exports.  A package
    ``__init__`` importing its own submodules is not an edge, so
    re-exporting a module does not keep it alive.  Tests are not roots:
    they import whatever they test.
    """

    REPO = pathlib.Path(__file__).resolve().parents[1]
    ROOT_DIRS = ("examples", "benchmarks", "perfbench", "scripts")

    #: Hypothesis strategies that only tests share.
    EXEMPT = {"repro.check.strategies"}

    def test_every_src_module_reached_from_a_root(self):
        src = self.REPO / "src"
        modules = {}
        for path in sorted((src / "repro").rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules[".".join(parts)] = ast.parse(path.read_text())
        packages = {
            name for name in modules
            if (src / name.replace(".", "/") / "__init__.py").exists()
        }

        def defining_module(module, name, seen=()):
            """Follow re-exports of ``name`` from package ``module``."""
            submodule = f"{module}.{name}"
            if submodule in modules:
                return submodule
            if module not in packages or module in seen:
                return module
            for node in ast.walk(modules[module]):
                if isinstance(node, ast.ImportFrom) and node.module in modules:
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            return defining_module(
                                node.module, alias.name, seen + (module,)
                            )
            return module

        def edges(tree, importer=None):
            own = f"{importer}." if importer in packages else None
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    if node.module not in modules:
                        continue
                    targets = [
                        defining_module(node.module, alias.name)
                        for alias in node.names
                    ]
                else:
                    continue
                for target in targets:
                    if target in modules and not (own and target.startswith(own)):
                        yield target

        pyproject = (self.REPO / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]")[1].split("\n[")[0]
        frontier = re.findall(r'"([\w.]+):\w+"', scripts)
        assert "repro.cli" in frontier
        for directory in self.ROOT_DIRS:
            for path in sorted((self.REPO / directory).rglob("*.py")):
                frontier.extend(edges(ast.parse(path.read_text())))
        reached = set()
        while frontier:
            module = frontier.pop()
            if module not in reached:
                reached.add(module)
                frontier.extend(edges(modules[module], module))
        reached |= {
            package for package in packages
            if any(module.startswith(f"{package}.") for module in reached)
        }
        orphans = sorted(set(modules) - reached - self.EXEMPT)
        assert orphans == [], f"src modules no root reaches: {orphans}"

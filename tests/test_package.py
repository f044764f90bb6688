"""Package-level sanity: exports, version, error taxonomy.

Every package ``__init__`` is an export table resolved on first use
(:func:`repro._util.export_table`); :class:`TestExportTables` pins that the
public surface it serves is the one the eager imports served at the
commit before (``tests/snapshots/public_surface.json``).
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import repro
from repro.errors import (
    BitstreamError,
    CompileError,
    ConfigError,
    ControlPlaneError,
    FlashError,
    PacketError,
    ParseError,
    ReproError,
    ResourceError,
    SerializationError,
    SimulationError,
    TableError,
    TimingError,
)

SUBPACKAGES = (
    "repro.packet",
    "repro.sim",
    "repro.fpga",
    "repro.core",
    "repro.hls",
    "repro.apps",
    "repro.switch",
    "repro.netem",
    "repro.costmodel",
    "repro.testbed",
    "repro.fleet",
    "repro.cli",
    "repro.analysis",
    "repro.artifact",
    "repro.faults",
    "repro.matrix",
    "repro.nfv",
    "repro.obs",
    "repro.parallel",
)
#: The 18 surfaces with an export table: the root and its 17 packages.
SURFACES = ("repro",) + tuple(
    m for m in SUBPACKAGES if m not in ("repro.cli", "repro.fleet")
)
SNAPSHOT = json.loads(
    (Path(__file__).parent / "snapshots" / "public_surface.json").read_text()
)


def export_table_of(package) -> dict[str, tuple[str, ...]]:
    """The literal table in a package's ``__init__``, read as data."""
    tree = ast.parse(Path(package.__file__).read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "export_table"
    ]
    assert len(calls) == 1, f"{package.__name__}: one export table per package"
    return ast.literal_eval(calls[0].args[1])


class TestExports:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_importable(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize(
        "module_name",
        [m for m in SUBPACKAGES if m not in ("repro.cli", "repro.fleet")],
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_all_sorted(self):
        # Keep the public surfaces tidy: __all__ lists stay sorted.
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            exported = getattr(module, "__all__", None)
            if exported:
                assert list(exported) == sorted(exported), module_name


class TestExportTables:
    def test_eighteen_surfaces(self):
        assert len(SURFACES) == 18 and set(SURFACES) == set(SNAPSHOT["__all__"])

    @pytest.mark.parametrize("module_name", SURFACES)
    def test_all_equals_the_parent_commits(self, module_name):
        module = importlib.import_module(module_name)
        assert sorted(module.__all__) == SNAPSHOT["__all__"][module_name]

    @pytest.mark.parametrize("module_name", SURFACES)
    def test_every_name_is_its_defining_modules_object(self, module_name):
        package = importlib.import_module(module_name)
        table = export_table_of(package)
        exported = [name for names in table.values() for name in names]
        own = ["__version__"] if module_name == "repro" else []
        # The table is the single source of __all__: nothing beside it.
        assert sorted(exported + own) == list(package.__all__)
        for submodule, names in table.items():
            defining = importlib.import_module(f"{module_name}.{submodule}")
            for name in names:
                expected = defining if name == submodule else getattr(defining, name)
                assert getattr(package, name) is expected
                # Resolved once, then a plain attribute of the package.
                assert vars(package)[name] is expected
                assert getattr(package, name) is expected

    @pytest.mark.parametrize("module_name", SURFACES)
    def test_dir_lists_every_export(self, module_name):
        package = importlib.import_module(module_name)
        assert set(dir(package)) >= set(package.__all__)

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from repro.sim import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == list(importlib.import_module("repro.sim").__all__)

    @pytest.mark.parametrize("module_name", SURFACES)
    def test_unknown_attribute_is_an_attribute_error(self, module_name):
        package = importlib.import_module(module_name)
        assert not hasattr(package, "no_such_export")
        with pytest.raises(AttributeError, match=module_name):
            package.no_such_export

    def test_app_registry_keeps_its_keys_and_order(self):
        from repro.apps import APP_FACTORIES, StaticNat

        assert list(APP_FACTORIES) == SNAPSHOT["app_factories"]
        assert len(APP_FACTORIES) == 14 and "nat" in APP_FACTORIES
        assert APP_FACTORIES["nat"] is StaticNat
        assert APP_FACTORIES.get("no-such-app") is None


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc",
        [
            BitstreamError,
            CompileError,
            ConfigError,
            ControlPlaneError,
            FlashError,
            PacketError,
            ParseError,
            ResourceError,
            SerializationError,
            SimulationError,
            TableError,
            TimingError,
        ],
    )
    def test_all_derive_from_reproerror(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_parse_error_is_packet_error(self):
        assert issubclass(ParseError, PacketError)
        assert issubclass(SerializationError, PacketError)

    def test_table_error_is_controlplane_error(self):
        assert issubclass(TableError, ControlPlaneError)

    def test_catching_reproerror_catches_everything(self):
        with pytest.raises(ReproError):
            raise TimingError("boom")

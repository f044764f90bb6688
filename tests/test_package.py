"""Package-level sanity: exports, version, error taxonomy."""

import importlib

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
)


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

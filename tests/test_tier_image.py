"""The tier decides how a module runs, never what it boots.

Both tiers boot the image :func:`repro.hls.compiler.compile_app` builds;
the compiled tier's fused program prices nothing, and a compiled reboot
re-fuses without synthesizing.

Each build decision is made once per boot, and the census below counts
them.  A slot the module synthesizes is checked once, by
``compile_app``'s strict gate, and its fused program is that app's
effect proof alone; a reboot has verified nothing yet and goes through
:func:`repro.hls.compile_executor`, whose gate checks once more.  A
multi-tenant module synthesizes each tenant once: its feasibility check
prices the tenant pipelines with the cost model and builds no image.  A
build prices its pipeline once: the IR verifier's resource-fit rule takes
the price, and synthesis reuses it; a flow-cache build verifies and prices
the pipeline with its cache stage.  A solo compiled boot builds its app's
``pipeline_spec()`` once and passes it along.
"""

import pytest

import repro.analysis.appcheck as appcheck
import repro.hls.compiler as compiler
from repro.apps import APP_FACTORIES, create_app
from repro.core import FlexSFPModule, ShellSpec
from repro.engine import ENGINES
from repro.errors import CompileError, ConfigError
from repro.fpga.resources import MPF100T
from repro.hls.ir import StageKind
from repro.nfv import Deployment, check_deployment, default_nfv_tenants, price_deployment
from repro.sim import Simulator


def _module(deployment: Deployment, engine: str) -> FlexSFPModule:
    return FlexSFPModule(Simulator(), "m", deployment, engine=engine)


def _nfv() -> Deployment:
    return Deployment.from_dicts(default_nfv_tenants())


def _counted(monkeypatch, function: str, *modules) -> list:
    """Count the calls to ``function`` through every module it is bound in."""
    calls = []
    for module in modules:
        original = getattr(module, function)

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, function, counting)
    return calls


def _check_app_calls(monkeypatch) -> list:
    # The one static check both check_app and compile_app go through.
    return _counted(monkeypatch, "_check_priced", appcheck)


@pytest.mark.parametrize("app", sorted(APP_FACTORIES))
def test_a_solo_module_boots_the_same_image_on_both_tiers(app):
    reference, compiled = (
        _module(Deployment.solo(app), engine).build.bitstream.to_bytes()
        for engine in ENGINES
    )
    assert reference == compiled


def test_every_nfv_slot_boots_the_same_image_on_both_tiers():
    reference, compiled = (
        [slot.build.bitstream.to_bytes() for slot in _module(_nfv(), engine).slots]
        for engine in ENGINES
    )
    assert len(reference) == 2
    assert reference == compiled


def test_reconfigure_tenant_stages_the_same_image_on_both_tiers():
    staged = []
    for engine in ENGINES:
        module = _module(_nfv(), engine)
        slot = module.slots[0]
        module.reconfigure_tenant(slot.name, create_app("passthrough"))
        assert slot.app.name == "passthrough"
        staged.append(slot.flash.read_image(1))
    assert staged[0] == staged[1]


def test_a_compiled_reboot_refuses_without_synthesizing(monkeypatch):
    module = _module(Deployment.solo("nat"), "compiled")
    running = module.program
    calls = _counted(monkeypatch, "_build_image", compiler)
    checks = _check_app_calls(monkeypatch)
    module.reboot()
    assert calls == []
    assert len(checks) == 1  # the boot's own gate: nothing verified it yet
    assert module.program is not running
    assert module.program.fusible


@pytest.mark.parametrize("engine", ENGINES)
def test_a_solo_module_checks_its_app_once(monkeypatch, engine):
    calls = _check_app_calls(monkeypatch)
    module = _module(Deployment.solo("nat"), engine)
    assert len(calls) == 1
    assert (module.program is not None) == (engine == "compiled")


def test_a_solo_compiled_boot_builds_its_pipeline_once(monkeypatch):
    # compile_app verifies and builds it; the proof and the engine's
    # pipeline depth take that spec along.
    calls = _counted(monkeypatch, "pipeline_spec", type(create_app("nat")))
    module = _module(Deployment.solo("nat"), "compiled")
    assert len(calls) == 1
    assert module.program.pipeline_depth == module.build.spec.pipeline_depth


@pytest.mark.parametrize("engine", ENGINES)
def test_an_nfv_module_synthesizes_each_tenant_once(monkeypatch, engine):
    calls = _counted(monkeypatch, "_build_image", compiler)
    module = _module(_nfv(), engine)
    assert [args[0].name for args in calls] == [slot.app.name for slot in module.slots]
    assert len(calls) == 2


@pytest.mark.parametrize("app", sorted(APP_FACTORIES))
def test_a_build_prices_its_pipeline_once(monkeypatch, app):
    calls = _counted(monkeypatch, "price_pipeline", compiler)
    build = compiler.compile_app(create_app(app), ShellSpec())
    assert len(calls) == 1
    unchecked = compiler.compile_pipeline(
        create_app(app).pipeline_spec(), ShellSpec(), verify=False
    )
    assert build.report.app_resources == unchecked.report.app_resources


@pytest.mark.parametrize("engine", ENGINES)
def test_a_module_prices_each_build_once(monkeypatch, engine):
    prices = _counted(monkeypatch, "price_pipeline", compiler)
    builds = _counted(monkeypatch, "compile_app", compiler)
    _module(Deployment.solo("nat"), engine)
    assert len(builds) == 1
    assert len(prices) == 1


def test_a_flow_cache_build_prices_the_cached_pipeline(monkeypatch):
    # The verifier checks the pipeline as built, cache stage included, and
    # synthesis reuses its price.
    calls = _counted(monkeypatch, "price_pipeline", compiler)
    build = compiler.compile_app(create_app("nat"), ShellSpec(), flow_cache_entries=1024)
    cached = [
        any(stage.kind is StageKind.FLOW_CACHE for stage in spec.stages)
        for spec, _bits in calls
    ]
    assert cached == [True]
    assert build.report.app_resources == compiler.price_pipeline(*calls[0])[0]


@pytest.mark.parametrize("app", sorted(APP_FACTORIES))
def test_a_flow_cache_that_overflows_the_device_is_a_finding(app):
    """Refused by the verifier's resource-fit rule, which names the cache
    stage, not at synthesis by the coarse overflow report."""
    with pytest.raises(CompileError, match="static verification") as refused:
        compiler.compile_app(
            create_app(app), ShellSpec(), device=MPF100T, flow_cache_entries=262144
        )
    assert "ir-resource-fit" in str(refused.value)
    assert "biggest stages: fastpath_cache=" in str(refused.value)


def test_the_nfv_price_is_the_synthesized_app_price():
    deployment = _nfv()
    price = price_deployment(deployment)
    for spec in deployment.tenants:
        build = compiler.compile_app(spec.build_app(), ShellSpec())
        assert price.per_tenant[spec.name] == build.report.app_resources


def test_a_shell_no_clock_sustains_still_fails_the_nfv_check():
    shell = ShellSpec(line_rate_bps=400e9, datapath_bits=64)
    with pytest.raises(
        ConfigError, match="no standard clock sustains 400.0 Gbps on a 64-bit datapath"
    ):
        check_deployment(_nfv(), shell)

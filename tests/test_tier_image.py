"""The tier decides how a module runs, never what it boots.

Both tiers boot the image :func:`repro.hls.compiler.compile_app` builds;
the compiled tier's fused program prices nothing, and a reboot never
synthesizes.

One boot rule on both tiers: a slot verifies an application once, when
it starts running it, and its engine starts from the pipeline that check
verified.  A boot runs the instance ``reconfigure_tenant(app=)`` just
synthesized the staged image from, else the running instance when the
image records its name and parameters, else a new instance built from
the image; only that last one, and the app behind a caller's
``build=``, goes through the strict gate, and an app the gate refuses
is a failed boot.  The census below counts each boot kind's checks
(``_check_priced``), pipelines built (``pipeline_spec``), fused programs
proven (``_prove``, compiled only) and images built (``_build_image``);
``python -m tests.test_tier_image`` prints it as JSON.  A multi-tenant
module synthesizes each tenant once: its feasibility check prices the
tenant pipelines with the cost model, builds each tenant's application
once, and builds no image.  A build prices its pipeline once: the IR
verifier's resource-fit rule takes the price, and synthesis reuses it; a
flow-cache build verifies and prices the pipeline with its cache stage.
"""

import json

import pytest

import repro.analysis.appcheck as appcheck
import repro.hls.compiler as compiler
import repro.hls.executor as executor
from repro.apps import APP_FACTORIES, create_app
from repro.core import FlexSFPModule, ShellSpec
from repro.engine import ENGINES
from repro.errors import CompileError, ConfigError
from repro.fpga.resources import MPF100T
from repro.hls.ir import StageKind
from repro.nfv import (
    Deployment,
    TenantSpec,
    check_deployment,
    default_nfv_tenants,
    price_deployment,
)
from repro.sim import Simulator


def _module(deployment: Deployment, engine: str, **options) -> FlexSFPModule:
    return FlexSFPModule(Simulator(), "m", deployment, engine=engine, **options)


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


def _app_classes() -> list[type]:
    """Every bundled application class that defines its own pipeline."""
    classes = {type(create_app(name)) for name in APP_FACTORIES}
    return sorted(
        (cls for cls in classes if "pipeline_spec" in vars(cls)),
        key=lambda cls: cls.__name__,
    )


def _boot_into(module: FlexSFPModule, app) -> None:
    """Store ``app``'s image (built for the default device) in flash slot
    1 and select it; the next reboot boots it."""
    module.load_via_jtag(compiler.compile_app(app, ShellSpec()).bitstream, slot=1)
    module.flash.select_boot(1)


def _refused_module(engine: str) -> FlexSFPModule:
    """An MPF100T module running ``firewall`` whose selected image is a
    ``nat`` that fits the default MPF200T but not this device."""
    module = _module(Deployment.solo("firewall"), engine, device=MPF100T)
    _boot_into(module, create_app("nat", {"capacity": 73728}))
    return module


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
    # Same image, same running app: verified when it started, so the
    # reboot neither checks it again nor proves a new program.
    module = _module(Deployment.solo("nat"), "compiled")
    running = module.program
    calls = _counted(monkeypatch, "_build_image", compiler)
    checks = _check_app_calls(monkeypatch)
    module.reboot()
    assert calls == []
    assert checks == []
    assert module.program is running
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
    spec = module.build.spec
    assert module.slots[0].pipeline is spec
    assert module.ppe.pipeline_latency_s == (
        spec.pipeline_depth / module.build.report.timing.clock_hz
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_a_refused_image_is_a_failed_boot(engine):
    """The gate refuses the image's app on this device: the boot falls
    back to golden, on both tiers, and nothing raises."""
    with pytest.raises(CompileError, match="ir-resource-fit"):
        compiler.compile_app(
            create_app("nat", {"capacity": 73728}), ShellSpec(), device=MPF100T
        )
    module = _refused_module(engine)
    running = module.app
    module.reboot()
    assert module.failed_boots == 1
    assert module.app is running
    assert module.app.name == "firewall"
    assert not module.degraded
    assert module.reboots == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_a_tenant_runs_the_app_it_was_reconfigured_with(engine):
    module = _module(_nfv(), engine)
    scrub = create_app("sanitizer", {"min_udp_payload": 100})
    module.reconfigure_tenant("scrub", scrub)
    slot = module.tenant_slot("scrub")
    assert slot.flash.load_bitstream(1).metadata["app_params"]["min_udp_payload"] == 100
    assert slot.app is scrub
    assert slot.ppe.app is scrub


@pytest.mark.parametrize("engine", ENGINES)
def test_a_reboot_into_other_parameters_runs_them(engine):
    module = _module(Deployment.solo("sanitizer"), engine)
    assert module.app.min_udp_payload == 0
    _boot_into(module, create_app("sanitizer", {"min_udp_payload": 100}))
    module.reboot()
    assert module.failed_boots == 0
    assert module.app.min_udp_payload == 100
    assert module.ppe.app is module.app


@pytest.mark.parametrize("engine", ENGINES)
def test_a_reboot_into_the_same_image_keeps_the_instance_and_its_tables(engine):
    module = _module(Deployment.solo("nat"), engine)
    running, program = module.app, module.program
    running.add_mapping("10.0.0.1", "198.51.100.1")
    module.reboot()
    assert module.app is running
    assert module.ppe.app is running
    assert len(running.nat_table) == 1
    assert module.program is program


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


def test_the_nfv_check_builds_each_tenant_once(monkeypatch):
    builds = _counted(monkeypatch, "build_app", TenantSpec)
    pipelines = _counted(monkeypatch, "pipeline_spec", *_app_classes())
    check_deployment(_nfv())
    assert [tenant.name for tenant, in builds] == ["scrub", "telemetry"]
    assert len(pipelines) == 2


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


# ----------------------------------------------------------------------
# The build census: what each boot kind checks, proves and builds
# ----------------------------------------------------------------------
#: The counted functions and where each is looked up at call time.
COUNTED = {
    "_check_priced": (appcheck,),
    "pipeline_spec": tuple(_app_classes()),
    "_prove": (executor,),
    "_build_image": (compiler,),
}


def _construct(engine: str):
    return lambda: _module(Deployment.solo("nat"), engine)


def _same_image_reboot(engine: str):
    return _module(Deployment.solo("nat"), engine).reboot


def _foreign_image_reboot(engine: str):
    module = _module(Deployment.solo("nat"), engine)
    _boot_into(module, create_app("firewall"))
    return module.reboot


def _reconfigure_tenant_app(engine: str):
    module = _module(_nfv(), engine)
    passthrough = create_app("passthrough")
    return lambda: module.reconfigure_tenant("scrub", passthrough)


def _refused_image_reboot(engine: str):
    return _refused_module(engine).reboot


#: Boot kind -> a setup that returns the boot, prepared outside the count.
BOOTS = {
    "construct": _construct,
    "same-image reboot": _same_image_reboot,
    "foreign-image reboot": _foreign_image_reboot,
    "reconfigure_tenant(app=)": _reconfigure_tenant_app,
    "refused image": _refused_image_reboot,
}


def build_census(engine: str) -> dict[str, dict[str, int]]:
    """Calls of each :data:`COUNTED` function per boot kind on ``engine``."""
    census = {}
    for kind, setup in BOOTS.items():
        boot = setup(engine)
        with pytest.MonkeyPatch.context() as patch:
            calls = {
                function: _counted(patch, function, *owners)
                for function, owners in COUNTED.items()
            }
            boot()
        census[kind] = {function: len(made) for function, made in calls.items()}
    return census


def _expected_census(engine: str) -> dict[str, dict[str, int]]:
    proofs = 1 if engine == "compiled" else 0
    rows = {
        # (gates, pipelines, proofs, images)
        "construct": (1, 1, proofs, 1),
        "same-image reboot": (0, 0, 0, 0),
        "foreign-image reboot": (1, 1, proofs, 0),
        "reconfigure_tenant(app=)": (1, 1, proofs, 1),
        "refused image": (1, 1, 0, 0),
    }
    return {kind: dict(zip(COUNTED, row)) for kind, row in rows.items()}


@pytest.mark.parametrize("engine", ENGINES)
def test_the_build_census(engine):
    assert build_census(engine) == _expected_census(engine)


if __name__ == "__main__":
    print(json.dumps({engine: build_census(engine) for engine in ENGINES}, indent=1))

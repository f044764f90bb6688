"""The tier decides how a module runs, never what it boots.

Both tiers boot the image :func:`repro.hls.compiler.compile_app` builds;
the compiled tier's fused program (:func:`repro.hls.compile_executor`)
prices nothing, and a compiled reboot re-fuses without synthesizing.
"""

import pytest

import repro.hls.compiler as compiler
from repro.apps import APP_FACTORIES, create_app
from repro.core import FlexSFPModule
from repro.engine import ENGINES
from repro.nfv import Deployment, default_nfv_tenants
from repro.sim import Simulator


def _module(deployment: Deployment, engine: str) -> FlexSFPModule:
    return FlexSFPModule(Simulator(), "m", deployment, engine=engine)


def _nfv() -> Deployment:
    return Deployment.from_dicts(default_nfv_tenants())


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
    calls = []
    monkeypatch.setattr(
        compiler, "compile_pipeline", lambda *args, **kwargs: calls.append(args)
    )
    module.reboot()
    assert calls == []
    assert module.program is not running
    assert module.program.fusible

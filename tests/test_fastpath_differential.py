"""Differential equivalence: the fast engine fed one frame per event.

The historical flow-cache suite, kept under its test names as more inputs
of ``test_compiled_differential.py`` (which owns the harness): here the
host's peer is a store-and-forward hop with only a per-frame handler, so
every frame reaches the compiled module as its own simulator event —
``FlexSFPModule._ingress``, a ``submit`` at ``sim.now``, the open-group
event re-armed per frame — which is the shape chaos and fleet-upgrade
traffic has behind a legacy switch.  The contract is the same: nothing
about the simulated results may differ from the reference per-frame engine.
"""

import pytest

from repro.apps import APP_FACTORIES

from .test_compiled_differential import (
    check_imix_matches_reference,
    check_midrun_table_write,
)


@pytest.mark.parametrize("name", sorted(APP_FACTORIES))
def test_fastpath_matches_reference(name):
    check_imix_matches_reference(name, per_event=True)


def test_midrun_table_write_matches_reference():
    check_midrun_table_write("event")

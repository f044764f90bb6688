"""FlexSFP core: shells, PPE runtime, tables, control plane, module."""

from .arbiter import Arbiter, is_mgmt_frame
from .controlplane import ControlPlane, ReconfigState
from .flowcache import DEFAULT_FLOW_CACHE_ENTRIES, FlowCache, FlowRecipe
from .mgmt import MgmtMessage, MgmtOp, chunk_body, mgmt_frame, parse_chunk_body
from .module import (
    CONTROL_PLANE_LATENCY_S,
    DEFAULT_AUTH_KEY,
    PASSTHROUGH_LATENCY_S,
    RECONFIG_DOWNTIME_S,
    TRANSCEIVER_LATENCY_S,
    WATCHDOG_TIMEOUT_S,
    FlexSFPModule,
    TenantSlot,
)
from .ppe import (
    Direction,
    PacketProcessingEngine,
    PPEApplication,
    PPEContext,
    ReferenceEngine,
    Verdict,
)
from .services import (
    ArpResponder,
    ControlPlaneService,
    IcmpEchoResponder,
    ServiceRegistry,
)
from .shells import (
    PROTOTYPE_SHELL,
    STANDARD_CLOCKS_HZ,
    ControlPlaneClass,
    ShellKind,
    ShellSpec,
)
from .tables import (
    ExactTable,
    LPMTable,
    Table,
    TableRegistry,
    TernaryEntry,
    TernaryTable,
)

__all__ = [
    "Arbiter",
    "ArpResponder",
    "CONTROL_PLANE_LATENCY_S",
    "ControlPlane",
    "ControlPlaneClass",
    "ControlPlaneService",
    "DEFAULT_AUTH_KEY",
    "DEFAULT_FLOW_CACHE_ENTRIES",
    "Direction",
    "ExactTable",
    "FlexSFPModule",
    "FlowCache",
    "FlowRecipe",
    "IcmpEchoResponder",
    "LPMTable",
    "MgmtMessage",
    "MgmtOp",
    "PASSTHROUGH_LATENCY_S",
    "PPEApplication",
    "PPEContext",
    "PROTOTYPE_SHELL",
    "PacketProcessingEngine",
    "RECONFIG_DOWNTIME_S",
    "ReconfigState",
    "ReferenceEngine",
    "STANDARD_CLOCKS_HZ",
    "ServiceRegistry",
    "ShellKind",
    "ShellSpec",
    "TRANSCEIVER_LATENCY_S",
    "Table",
    "TableRegistry",
    "TernaryEntry",
    "TernaryTable",
    "Verdict",
    "WATCHDOG_TIMEOUT_S",
    "chunk_body",
    "is_mgmt_frame",
    "mgmt_frame",
    "parse_chunk_body",
]

"""FlexSFP core: shells, PPE runtime, tables, control plane, module."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "arbiter": ("Arbiter", "is_mgmt_frame"),
        "controlplane": ("ControlPlane", "ReconfigState"),
        "flowcache": ("DEFAULT_FLOW_CACHE_ENTRIES", "FlowCache", "FlowRecipe"),
        "mgmt": (
            "MgmtMessage", "MgmtOp", "chunk_body", "mgmt_frame", "parse_chunk_body",
        ),
        "module": (
            "CONTROL_PLANE_LATENCY_S", "DEFAULT_AUTH_KEY", "PASSTHROUGH_LATENCY_S",
            "RECONFIG_DOWNTIME_S", "TRANSCEIVER_LATENCY_S", "WATCHDOG_TIMEOUT_S",
            "FlexSFPModule",
        ),
        "ppe": (
            "Direction", "PacketProcessingEngine", "PPEApplication", "PPEContext",
            "ReferenceEngine", "Verdict",
        ),
        "services": (
            "ArpResponder", "ControlPlaneService", "IcmpEchoResponder",
            "ServiceRegistry",
        ),
        "shells": (
            "PROTOTYPE_SHELL", "STANDARD_CLOCKS_HZ", "ControlPlaneClass", "ShellKind",
            "ShellSpec", "operating_point_report", "plan_operating_point",
        ),
        "tables": (
            "ExactTable", "LPMTable", "Table", "TableRegistry", "TernaryEntry",
            "TernaryTable",
        ),
    },
)

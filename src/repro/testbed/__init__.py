"""Measurement testbeds: §5 power rig, §5.3 reliability, §2 baselines."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "hostcpu": ("HostCpuPath",),
        "power": (
            "FLEXSFP_TOTAL_W", "FPGA_STATIC_W", "NIC_BASELINE_W", "OPTICS_DYNAMIC_W",
            "OPTICS_STATIC_W", "PLAIN_SFP_TOTAL_W", "PowerSample", "PowerTestbed",
            "flexsfp_power_w", "fpga_power_w", "optics_power_w",
        ),
        "reliability": (
            "LaserHealth", "LaserTelemetry", "ModuleHealthMonitor", "RepairDecision",
            "VcselWearModel", "fleet_failure_fraction", "repair_economics",
        ),
    },
)

"""Legacy switch, hosts, and the FlexSFP retrofit machinery."""

from .._util import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "host": ("Host",),
        "legacy": (
            "DEFAULT_MAC_TABLE_SIZE", "SWITCH_PIPELINE_LATENCY_S", "LegacySwitch",
            "SfpCage",
        ),
        "retrofit": ("PortPolicy", "RetrofitPlan", "RetrofitResult", "apply_retrofit"),
    },
)

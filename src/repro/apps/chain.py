"""Application composition: several functions in one PPE (§5.3).

"FlexSFP targets composed L2-L4 functions — multi-field parse/edit,
label/tunnel manipulation, per-packet hashing for steering, and in-band
timestamping/telemetry — executed at the optical boundary."

:class:`AppChain` is the composition operator: it runs member
applications in order (first non-PASS verdict wins, like a match-action
chain), exposes every member's tables under prefixed names, and lowers to
a *single* pipeline — one shared parser/deparser/buffer sized for the
deepest member, with the members' match-action stages concatenated and
the build-flow optimizer's fusion rules applied.  Composing in one PPE is
cheaper than cabling modules in series: the shared shell, parser, and
buffer are paid once (the same argument the Two-Way-Core makes for
sharing across directions).
"""

from __future__ import annotations

from ..core.ppe import PPEApplication, PPEContext, Verdict
from ..core.tables import Table, TableRegistry
from ..errors import ConfigError
from ..hls.ir import PipelineSpec, Stage, StageKind
from ..hls.passes import optimize
from ..packet import Packet


class AppChain(PPEApplication):
    """Sequential composition of PPE applications."""

    name = "chain"

    def __init__(self, apps: list[PPEApplication], name: str = "chain") -> None:
        super().__init__()
        if not apps:
            raise ConfigError("a chain needs at least one application")
        names = [app.name for app in apps]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate application names in chain: {names}")
        self.name = name
        self.apps = list(apps)
        # Each member beside its stop counter's name, built once.
        self._stops = [(app, f"stopped_by_{app.name}") for app in self.apps]
        # Re-export member tables under prefixed names so the control
        # plane can address them without collisions.
        self.tables = TableRegistry()
        for app in self.apps:
            for table_name in app.tables.names():
                table = app.tables.get(table_name)
                self.tables.register(_PrefixedTable(f"{app.name}.{table_name}", table))

    # ------------------------------------------------------------------
    def process(self, packet: Packet, ctx: PPEContext) -> Verdict:
        for app, stopped in self._stops:
            verdict = app.process(packet, ctx)
            if verdict is not Verdict.PASS:
                self.count(stopped, packet)
                return verdict
        self.count("passed", packet)
        return Verdict.PASS

    # ------------------------------------------------------------------
    def pipeline_spec(self) -> PipelineSpec:
        """One fused pipeline: shared shell stages, concatenated chains."""
        member_specs = [app.pipeline_spec() for app in self.apps]
        max_parser = 14
        max_fifo_depth = 2 * 1518
        max_fifo_meta = 64
        middle: list[Stage] = []
        for app, spec in zip(self.apps, member_specs):
            for stage in spec.stages:
                if stage.kind is StageKind.PARSER:
                    max_parser = max(max_parser, stage.param("header_bytes"))
                elif stage.kind is StageKind.FIFO:
                    max_fifo_depth = max(max_fifo_depth, stage.param("depth_bytes"))
                    max_fifo_meta = max(
                        max_fifo_meta, int(stage.params.get("metadata_bits", 0))
                    )
                elif stage.kind is StageKind.DEPARSER:
                    continue
                else:
                    middle.append(
                        Stage(
                            name=f"{app.name}.{stage.name}",
                            kind=stage.kind,
                            params=dict(stage.params),
                        )
                    )
        stages = (
            [Stage("parse", StageKind.PARSER, {"header_bytes": max_parser})]
            + middle
            + [
                Stage(
                    "buffer",
                    StageKind.FIFO,
                    {
                        "depth_bytes": max_fifo_depth,
                        "metadata_bits": max_fifo_meta,
                        "metadata_entries": 16,
                    },
                ),
                Stage("deparse", StageKind.DEPARSER, {"header_bytes": max_parser}),
            ]
        )
        fused = PipelineSpec(
            name=self.name,
            stages=stages,
            description="composed: " + " -> ".join(a.name for a in self.apps),
        )
        optimized, _ = optimize(fused)
        return optimized

    def metric_values(self) -> dict[str, int]:
        merged = super().metric_values()
        for app in self.apps:
            for name, value in app.metric_values().items():
                merged[f"{app.name}.{name}"] = value
        return merged

    def config(self) -> dict:
        # Chains are built programmatically: the bitstream records the
        # member list for inspection, but (like custom XDP programs) a
        # chain is not reconstructible from metadata — a reboot into a
        # chain image on a module that lost the object falls back to the
        # running app (see FlexSFPModule.reboot's watchdog behaviour).
        return {
            "members": [app.name for app in self.apps],
            "reconstructible": False,
        }


class _PrefixedTable(Table):
    """A view of a member's table under a prefixed name."""

    def __init__(self, name: str, inner: Table) -> None:
        # Intentionally skip Table.__init__: this is a delegating view.
        self.name = name
        self._inner = inner
        self.kind = inner.kind

    @property
    def capacity(self) -> int:  # type: ignore[override]
        return self._inner.capacity

    @property
    def generation(self) -> int:  # type: ignore[override]
        return self._inner.generation

    def __len__(self) -> int:
        return len(self._inner)

    def lookup(self, key):
        return self._inner.lookup(key)

    def insert(self, *args, **kwargs):
        return self._inner.insert(*args, **kwargs)

    def delete(self, *args, **kwargs):
        return self._inner.delete(*args, **kwargs)

    def stats(self) -> dict[str, int]:
        return self._inner.stats()

    def __getattr__(self, item):
        return getattr(self._inner, item)

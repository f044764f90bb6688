"""The unified metrics registry: one namespace for every counter.

FlexSFP's telemetry story (INT, flow export, the Table 1 case study) only
works if the simulated module can *see itself*: every component — PPE
engines, flow caches, ports, watchdogs, legacy switches, fault injectors —
publishes its statistics into one hierarchy of dotted metric names, e.g.
``module0.ppe.nat.overload_drops.packets``.

The contract is deliberately tiny:

* a **metric source** is anything with a ``metric_values()`` method (the
  :class:`MetricSource` protocol) returning a flat mapping of dotted
  *suffixes* to scalar values, or a zero-argument callable returning such
  a mapping (useful when the underlying object is swapped at runtime,
  like the PPE across a reboot);
* the :class:`MetricsRegistry` binds each source to a dotted *prefix* and
  produces the merged flat view on demand (:meth:`MetricsRegistry.collect`).

Collection is pull-based and side-effect free, so registering sources
never perturbs a simulation: determinism tests run with and without a
registry attached and compare output bytes.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, Protocol, Union, runtime_checkable

from ..errors import ObservabilityError

MetricValue = Union[int, float, str, bool]

# A dotted name: one or more [A-Za-z0-9_-] segments separated by dots.
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+(?:\.[A-Za-z0-9_-]+)*$")


def validate_metric_name(name: str) -> str:
    """Check ``name`` against the dotted-name convention; returns it."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ObservabilityError(
            f"invalid metric name {name!r}: expected dot-separated "
            "[A-Za-z0-9_-] segments"
        )
    return name


@runtime_checkable
class MetricSource(Protocol):
    """Anything that can publish a flat mapping of metric suffixes."""

    def metric_values(self) -> Mapping[str, MetricValue]:
        """Flat mapping of dotted metric suffixes to scalar values."""
        ...  # pragma: no cover - protocol body


SourceLike = Union[MetricSource, Callable[[], Mapping[str, MetricValue]]]


class MetricsRegistry:
    """Hierarchical dotted-name metric namespace over registered sources.

    ``register(prefix, source)`` binds a :class:`MetricSource` (or a
    zero-arg callable returning a mapping) under a dotted prefix; the full
    metric name is ``<prefix>.<suffix>``.  Prefixes must be unique;
    distinct prefixes may nest (``dut`` and ``dut.ppe`` coexist) but a
    full-name collision at collection time is an error, not a silent
    overwrite.
    """

    def __init__(self) -> None:
        self._sources: dict[str, Callable[[], Mapping[str, MetricValue]]] = {}

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._sources

    def register(self, prefix: str, source: SourceLike) -> None:
        """Bind ``source`` under ``prefix`` (must be new and well-formed)."""
        validate_metric_name(prefix)
        if prefix in self._sources:
            raise ObservabilityError(f"metric prefix {prefix!r} already registered")
        if callable(source) and not hasattr(source, "metric_values"):
            supplier = source
        elif hasattr(source, "metric_values"):
            supplier = source.metric_values
        else:
            raise ObservabilityError(
                f"source for {prefix!r} is neither a MetricSource nor callable"
            )
        self._sources[prefix] = supplier

    def register_value(
        self, name: str, supplier: Callable[[], MetricValue]
    ) -> None:
        """Bind a single scalar metric ``name`` to a zero-arg supplier."""
        validate_metric_name(name)
        if "." not in name:
            raise ObservabilityError(
                f"scalar metric {name!r} needs at least two dotted segments"
            )
        prefix, leaf = name.rsplit(".", 1)
        self.register(prefix, lambda: {leaf: supplier()})

    def prefixes(self) -> tuple[str, ...]:
        """Registered prefixes, sorted."""
        return tuple(sorted(self._sources))

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, prefix: str | None = None) -> dict[str, MetricValue]:
        """The merged flat metric view, sorted by full dotted name.

        ``prefix`` filters to metrics whose name equals it or starts with
        ``prefix + "."`` (dotted-segment filtering, not plain startswith).
        """
        flat: dict[str, MetricValue] = {}
        for source_prefix, supplier in self._sources.items():
            for suffix, value in supplier().items():
                validate_metric_name(suffix)
                full = f"{source_prefix}.{suffix}"
                if full in flat:
                    raise ObservabilityError(
                        f"metric name collision: {full!r} published twice"
                    )
                flat[full] = value
        if prefix is not None:
            dotted = prefix + "."
            flat = {
                name: value
                for name, value in flat.items()
                if name == prefix or name.startswith(dotted)
            }
        return dict(sorted(flat.items()))

    def query(self, name: str) -> MetricValue:
        """Value of one fully qualified metric (collects on demand)."""
        collected = self.collect()
        if name not in collected:
            raise ObservabilityError(f"unknown metric {name!r}")
        return collected[name]

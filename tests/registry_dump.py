"""Every registry leaf of every scenario kind, as one JSON document.

The proof that a refactor moved nothing simulated is a parent-vs-change
comparison of every metric, summary field and histogram bucket on both
tiers; this is that comparison as a tool.

``python -m tests.registry_dump OUT.json`` runs the five non-chaos kinds
on both tiers at seed 1, ``chaos`` on both tiers at seeds 1, 2, 3, 5, 7
and 11 (seed 1 has the overlapping reboots seed 7 lacks) and every other
named fault plan on both tiers at seed 1 (32 runs), and writes
``{"<kind>/<engine>/<seed>": {metrics, summary, histograms}}``, the kind
of a non-``smoke`` plan's run spelled ``chaos:<plan>``.
It dumps whichever ``repro`` is first on ``PYTHONPATH``, so the parent's
dump is ``PYTHONPATH=<parent clone>/src python -m tests.registry_dump``
run from this checkout.

``python -m tests.registry_dump --diff A.json B.json`` prints each
differing leaf and exits 1 if there is one; ``--semantic`` skips the
leaves :func:`repro.artifact.diff.is_semantic_metric` excludes
(``sim.events``, flow-cache and compiled-lane counters).

``python -m tests.registry_dump --digests OUT.json`` writes one
:func:`~repro.artifact.diff.semantic_shard_digest` per run key instead.
The checked-in ``tests/snapshots/registry_semantic.json`` is that file:
CI ``--diff``s a fresh one against it, so a change that moves a semantic
leaf carries the new record in its own diff, where a reviewer sees which
runs moved (the leaf-level view is a ``--diff --semantic`` of two dumps).
"""

from __future__ import annotations

import argparse
import json
import sys

CHAOS_SEEDS = (1, 2, 3, 5, 7, 11)
_MISSING = "<missing>"


def runs() -> list[tuple[str, str, int, str | None]]:
    """``(kind, engine, seed, fault plan)`` per run; no plan means the default."""
    from repro.engine import ENGINES
    from repro.faults import NAMED_PLANS
    from repro.obs.scenario import SCENARIO_KINDS

    planned = [
        (kind, engine, seed, None)
        for kind in sorted(SCENARIO_KINDS)
        for engine in ENGINES
        for seed in (CHAOS_SEEDS if kind == "chaos" else (1,))
    ]
    planned += [
        ("chaos", engine, 1, plan)
        for plan in sorted(NAMED_PLANS)
        if plan != "smoke"
        for engine in ENGINES
    ]
    return planned


def label(kind: str, engine: str, seed: int, plan: str | None) -> str:
    """A run's key in a dump: ``<kind>[:<plan>]/<engine>/<seed>``."""
    return f"{kind if plan is None else f'{kind}:{plan}'}/{engine}/{seed}"


def dump() -> dict[str, dict]:
    from repro.obs.scenario import ScenarioSpec

    document = {}
    for kind, engine, seed, plan in runs():
        spec = ScenarioSpec(kind=kind, engine=engine, seed=seed, fault_plan=plan)
        run = spec.run()
        document[label(kind, engine, seed, plan)] = {
            "metrics": run.metrics(),
            "summary": run.summary,
            "histograms": run.histograms(),
        }
    return document


def digests(document: dict[str, dict]) -> dict[str, str]:
    """One semantic digest per run of a dump: what the CI record holds."""
    from repro.artifact.diff import semantic_shard_digest

    return {
        key: semantic_shard_digest(run["metrics"], run["summary"], run["histograms"])
        for key, run in document.items()
    }


def leaves(value: object, path: str = "") -> dict[str, object]:
    """``value`` flattened to ``{"a/b/0": scalar}``; an empty container is a leaf."""
    if isinstance(value, dict) and value:
        children = value.items()
    elif isinstance(value, list) and value:
        children = enumerate(value)
    else:
        return {path: value}
    flat: dict[str, object] = {}
    for key, child in children:
        flat.update(leaves(child, f"{path}/{key}" if path else str(key)))
    return flat


def differing(a: dict, b: dict, semantic: bool = False) -> list[str]:
    """One line per leaf of ``a`` and ``b`` that is not equal in both."""
    from repro.artifact.diff import is_semantic_metric

    def compared(leaf: str) -> bool:
        if not semantic:
            return True
        # "<kind>/<engine>/<seed>/<section>/<name...>"
        section, name = (leaf.split("/", 4) + [""])[3:5]
        return section != "metrics" or is_semantic_metric(name)

    flat_a, flat_b = leaves(a), leaves(b)
    return [
        f"{leaf}: {flat_a.get(leaf, _MISSING)!r} != {flat_b.get(leaf, _MISSING)!r}"
        for leaf in sorted(flat_a.keys() | flat_b.keys())
        if compared(leaf) and flat_a.get(leaf, _MISSING) != flat_b.get(leaf, _MISSING)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.registry_dump")
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--diff", action="store_true", help="compare two dumps")
    parser.add_argument(
        "--semantic", action="store_true", help="with --diff: semantic leaves only"
    )
    parser.add_argument(
        "--digests", action="store_true", help="dump one semantic digest per run"
    )
    args = parser.parse_args(argv)
    if not args.diff:
        if len(args.files) != 1:
            parser.error("dumping takes one output file")
        document = json.loads(json.dumps(dump(), default=str))
        if args.digests:
            document = digests(document)
        with open(args.files[0], "w") as handle:
            handle.write(json.dumps(document, sort_keys=True, indent=1) + "\n")
        print(f"{len(document)} runs, {len(leaves(document))} leaves -> {args.files[0]}")
        return 0
    if len(args.files) != 2:
        parser.error("--diff takes two dumps")
    documents = []
    for name in args.files:
        with open(name) as handle:
            documents.append(json.load(handle))
    lines = differing(*documents, semantic=args.semantic)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing leaves over {len(documents[0])} runs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

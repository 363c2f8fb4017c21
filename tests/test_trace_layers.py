"""Each layer the benchmark's tracer times is still reached through the
name it wraps.

`bench/tracing.py` times a layer by wrapping a module attribute, such as
`sthl.export.typecheck`. A wrapped name that disappears fails the traced
item, but a call moved out from under a wrapped name only makes that layer
read 0 s. So this runs the first item of each deck under the tracer and
asserts the spans each workload's item opens, and where the re-solve's
front end is counted.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

PIPELINE = {
    "cli.pipeline",
    "dsl.parse",
    "dsl.typecheck",
    "dsl.print",
    "build.build_scene",
    "constraints.compile",
    "assets.decide",
    "solver.solve",
    "solver.initial_placement",
    "solver.relaxation",
    "export.assemble",
    "export.write",
}

SPANS = {
    "rooms": PIPELINE,
    "house": PIPELINE | {"export.read", "export.resolve_region"},
    "authoring": {
        "cli.fmt",
        "cli.check",
        "cli.assets",
        "cli.eval",
        "dsl.parse",
        "dsl.typecheck",
        "build.build_scene",
        "constraints.compile",
        "assets.decide",
        "metrics.object_resemblance",
        "metrics.layout_resemblance",
    },
}


def _traced_first_item(workload: str, tmp_path: Path) -> list[list]:
    deck = workloads.Deck(workload, 7, tmp_path / "inputs")
    item = deck.items[0]
    tracer = tracing.Tracer()
    tracer.run_item(0, lambda: workloads.run_item(workload, item, tmp_path / "out", deck.index))
    return tracer.spans


@pytest.mark.parametrize("workload", list(SPANS))
def test_each_layer_opens_its_span(tmp_path, workload):
    names = {record[1] for record in _traced_first_item(workload, tmp_path)}
    assert SPANS[workload] <= names, sorted(SPANS[workload] - names)


def test_the_resolve_front_end_is_counted_inside_the_resolve(tmp_path):
    spans = _traced_first_item("house", tmp_path)
    inside = {
        record[1]
        for record in spans
        if record[4] >= 0 and spans[record[4]][1] == "export.resolve_region"
    }
    # The re-solve's build runs through `export.build_scene`, which the
    # tracer does not wrap yet, so it is not among the spans asserted here.
    assert {"dsl.typecheck", "constraints.compile"} <= inside

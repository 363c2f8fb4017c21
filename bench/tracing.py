"""Tracing from outside the program: spans and counters taken around calls
into the sthl modules, without touching their source.

Every wrapper replaces a module attribute as the *calling* module sees it
(for example ``sthl.solver.evaluate`` and ``sthl.scene.collision_margin``),
so the program runs unchanged and only its calls are observed. An
attribute that no longer exists fails the traced item with an error that
names it, so a refactor that renames a wrapped function cannot read as a
counter that dropped to zero; update the tables below with such a change.

Spans (item, name, start, end, parent) stay in memory and are written out,
with the counters, once at the end of a run. A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from sthl import assets, cli, constraints, export, metrics, scene, solver

# (module, attribute, span name). A function appears once for each module
# that calls it through a name of its own.
SPANS = [
    (cli, "pipeline", "cli.pipeline"),
    (cli, "_cmd_fmt", "cli.fmt"),
    (cli, "_cmd_check", "cli.check"),
    (cli, "_cmd_assets", "cli.assets"),
    (cli, "_cmd_eval", "cli.eval"),
    (cli, "parse", "dsl.parse"),
    (export, "parse", "dsl.parse"),
    (metrics, "parse", "dsl.parse"),
    (cli, "typecheck", "dsl.typecheck"),
    (export, "typecheck", "dsl.typecheck"),
    (metrics, "typecheck", "dsl.typecheck"),
    (cli, "print_program", "dsl.print"),
    (export, "print_program", "dsl.print"),
    (cli, "build_scene", "build.build_scene"),
    (constraints, "compile_constraints", "constraints.compile"),
    (export, "compile_constraints", "constraints.compile"),
    (assets, "decide_all", "assets.decide"),
    (cli, "solve", "solver.solve"),
    (export, "solve", "solver.solve"),
    (solver, "initial_placement", "solver.initial_placement"),
    (solver, "physics_relaxation", "solver.relaxation"),
    (solver, "select_batch", "solver.select_batch"),
    (solver, "local_search_batch_solve", "solver.repair"),
    (solver, "enforce_bounds", "solver.enforce_bounds"),
    (export, "assemble", "export.assemble"),
    (export, "write_package", "export.write"),
    (export, "read_package", "export.read"),
    (export, "resolve_region", "export.resolve_region"),
    (metrics, "object_resemblance", "metrics.object_resemblance"),
    (metrics, "layout_resemblance", "metrics.layout_resemblance"),
]

# (module or class, attribute, counter name). Counted per enclosing span.
COUNTERS = [
    (scene, "collision_margin", "scene.sat_tests"),
    (scene, "minimum_translation", "scene.sat_tests"),
    (scene, "inside", "scene.inside_calls"),
    (scene, "supported", "scene.supported_calls"),
    (scene, "footprint_overlap", "scene.footprint_overlap_calls"),
    (solver, "evaluate", "constraints.evaluate_calls"),
    (export, "evaluate", "constraints.evaluate_calls"),
    (constraints, "evaluate", "constraints.evaluate_calls"),
    (assets, "score_retrieval", "assets.scored_pairs"),
    (metrics.TrigramEmbedder, "embed", "metrics.embed_calls"),
    # No public function reports candidate transforms; this counts the
    # length of what the private generator returns (bench's own wrapper).
    (solver, "_candidates", "solver.candidates"),
]

PROVENANCES = ("explicit", "hidden-collision", "hidden-gravity", "hidden-boundary")


def box_cache():
    """The geometry module's box cache, or None if it no longer has one."""
    box = getattr(scene, "_oriented_box", None)
    return box if hasattr(box, "cache_info") and hasattr(box, "cache_clear") else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [item, name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (counter, enclosing span) -> n
        self.item = -1
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing wrappers

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span_wrapper(name))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._counter_wrapper(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            raise AttributeError(
                f"tracing: {getattr(owner, '__name__', owner)} has no attribute {attr!r}"
            )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _enclosing(self) -> str:
        return self.spans[self.stack[-1]][1] if self.stack else ""

    def _span_wrapper(self, name: str):
        after = _AFTER.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(self.spans)
                parent = self.stack[-1] if self.stack else -1
                record = [self.item, name, time.perf_counter(), None, parent]
                self.spans.append(record)
                self.stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.stack.pop()
                    record[3] = time.perf_counter()
                if after is not None:
                    after(self, result)
                return result

            return wrapper

        return make

    def _counter_wrapper(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                where = self._enclosing()
                if name == "solver.candidates":
                    self.counts[name, where] += len(result)
                    return result
                self.counts[name, where] += 1
                if name == "scene.sat_tests" and args[0].region != args[1].region:
                    self.counts["scene.sat_tests_cross_region", where] += 1
                return result

            return wrapper

        return make

    # ------------------------------------------------------------------
    # Item boundaries

    def run_item(self, item: int, fn):
        """Run one item inside a root span, with the wrappers installed."""
        self.item = item
        try:
            self.install()
            return self._span_wrapper("bench.item")(fn)()
        finally:
            self.uninstall()

    def record_cache(self) -> None:
        cache = box_cache()
        if cache is None:
            raise AttributeError("tracing: sthl.scene._oriented_box has no cache_info")
        info = cache.cache_info()
        self.counts["scene.box_cache_hits", ""] += info.hits
        self.counts["scene.box_cache_misses", ""] += info.misses

    # ------------------------------------------------------------------
    # Reporting

    def span_seconds(self) -> tuple[Counter, Counter, Counter]:
        """Inclusive seconds, self seconds and call counts per span name."""
        inclusive: Counter = Counter()
        child: Counter = Counter()
        calls: Counter = Counter()
        for record in self.spans:
            duration = record[3] - record[2]
            inclusive[record[1]] += duration
            calls[record[1]] += 1
            if record[4] >= 0:
                child[record[4]] += duration
        self_time: Counter = Counter()
        for index, record in enumerate(self.spans):
            self_time[record[1]] += record[3] - record[2] - child[index]
        return inclusive, self_time, calls

    def write(self, path: Path) -> None:
        """One JSON line per span, then one per (counter, enclosing span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for item, name, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"item": item, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
            for (name, where), n in sorted(self.counts.items()):
                out.write(json.dumps({"counter": name, "span": where, "count": n}) + "\n")


def totals(counts: Counter) -> Counter:
    """Counts per counter name, summed over enclosing spans."""
    out: Counter = Counter()
    for (name, _), n in counts.items():
        out[name] += n
    return out


def _after_solve(tracer: Tracer, report) -> None:
    tracer.counts["solver.iterations", ""] += len(report.iterations) - 1
    tracer.counts["solver.moves_accepted", ""] += sum(len(r.moved) for r in report.iterations)


def _after_compile(tracer: Tracer, cs) -> None:
    for c in cs.constraints:
        tracer.counts[f"constraints.count.{c.provenance}", ""] += 1


def _after_decide(tracer: Tracer, decisions) -> None:
    tracer.counts["assets.decisions", ""] += len(decisions)
    tracer.counts["assets.retrieved", ""] += sum(d.verdict == "retrieved" for d in decisions)


_AFTER = {
    "solver.solve": _after_solve,
    "constraints.compile": _after_compile,
    "assets.decide": _after_decide,
}

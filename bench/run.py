"""Benchmark for the sthl toolchain.

    python3 bench/run.py --workload rooms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process, one caller, closed loop: each item starts when the previous
one ends. The seed fixes a deck of inputs (workloads.Deck); the loop goes
round the deck for --seconds, and at least once, so correctness and the
trace counters cover the same inputs on every run of a seed.

With --trace 0 every GROUP inputs are bracketed by runs of the deck's first
input, and each input's seconds are scaled to the machine's fastest speed
in the run (Run.scale); the last stdout line is a JSON object carrying the
end-to-end metrics. With --trace 1 each item runs twice, once plain and
once with the wrappers of tracing.py installed (alternating which goes
first), and the JSON carries the per-layer metrics. The process exits 1
when any output check fails and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The program and the oracles come from this checkout, never from elsewhere.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    import checks
    import sthl
    import tracing
    import workloads
    from sthl.build import build_scene
    from sthl.dsl import parse, typecheck
    from sthl.metrics import solution_correctness
    from sthl.scene import SceneLayout
except ImportError as exc:  # for example, a copy that holds only the benchmark
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None
    if Path(sthl.__file__).resolve().parent != (ROOT / "src" / "sthl").resolve():
        IMPORT_ERROR = ImportError(f"sthl was imported from {sthl.__file__}, not from {ROOT}")

WORKLOADS = ("rooms", "house", "authoring")
PROBE_SECONDS = 0.045  # the probe's time on a quiet 2.0 GHz Xeon vCPU (Python 3.11, numpy 2)
SETUP_SAMPLES = 5
LOOP_WALL_LIMIT = 120.0  # seconds; keeps a pathologically slow program under the run limit
LAYERS = ("cli", "dsl", "build", "constraints", "solver", "assets", "export", "metrics")


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to `import sthl.cli`."""
    code = "import time; t = time.perf_counter(); import sthl.cli; print(time.perf_counter() - t)"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(  # this process's own import wrote the bytecode
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def probe() -> float:
    """Seconds of a fixed piece of work in the benchmark's own code: pure
    Python dict and float arithmetic, then small numpy vector calls, the
    two kinds of work the program's hot loops do."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(20_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += (i % 7) * 1.5
    box = np.arange(9.0).reshape(3, 3)
    for _ in range(800):
        total += float(np.cross(box[0], box[1])[2]) + float(box.min(axis=0)[0])
    return time.perf_counter() - start


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deck = workloads.Deck(args.workload, args.seed, work / "inputs")
        self.times: list[float] = []  # untraced seconds per input (scaled, see scale())
        self.ratios: dict[int, list[float]] = {}  # deck position -> seconds over the probes around it
        self.traced: list[float] = []
        self.measured = 0.0  # seconds spent in items, failed ones included
        self.first: dict[str, tuple] = {}  # key -> (item, outcome) of its first run
        # Authoring's stated layouts hold by construction and cost about a
        # second each to score, so only its first round is scored.
        scored = self.deck.items
        if args.workload == "authoring":
            scored = scored[: len(workloads.AUTHORING_SIZES)]
        self.scored = {item.key for item in scored}
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0
        self.snapshot: Counter = Counter()
        self.setup: list[float] = []  # setup_sample() values, spread over the run

    # ------------------------------------------------------------------

    def _execute(self, item, out: Path, tracer=None, index: int = -1):
        cache = tracing.box_cache()
        if cache is not None:
            cache.cache_clear()  # as in a fresh `sthl` process
        call = lambda: workloads.run_item(  # noqa: E731
            self.args.workload, item, out, self.deck.index
        )
        gc.collect()  # garbage of earlier items is not this item's cost
        start = time.perf_counter()
        outcome = call() if tracer is None else tracer.run_item(index, call)
        return outcome, time.perf_counter() - start

    def _item(self, index: int, item, tracer) -> float | None:
        """Runs one item and checks it; returns its untraced seconds, or
        None when it raised or failed a check."""
        out = self.work / "out" / str(index)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome, seconds = self._execute(item, out)
            else:
                plain = self.work / "out" / f"{index}-plain"
                runs = [("plain", plain, None), ("traced", out, tracer)]
                if index % 2:
                    runs.reverse()
                timed = {}
                for label, where, t in runs:
                    result, timed[label] = self._execute(item, where, t, index)
                    if label == "traced":
                        outcome = result
                        tracer.record_cache()
                seconds = timed["plain"]
                self.traced.append(timed["traced"])
                shutil.rmtree(plain, ignore_errors=True)
        except Exception as exc:  # an item that raises counts as failed
            self.failed += 1
            self.problems.append(f"item {index} ({item.key}): {type(exc).__name__}: {exc}")
            return None
        finally:
            self.measured += time.perf_counter() - start
        return seconds if self._check(index, item, outcome) else None

    def _check(self, index: int, item, outcome) -> bool:
        problems = []
        if self.args.workload == "authoring":
            problems += checks.check_authoring(outcome.texts)
        if self.args.workload == "house":
            problems += checks.check_isolation(outcome.read, outcome.resolved, item.room)
        if item.key in self.first:
            problems += checks.check_identical(self.first[item.key][1], outcome)
        else:
            self.first[item.key] = (item, outcome)
        if problems:
            self.failed += 1
            self.problems += [f"item {index} ({item.key}): {p}" for p in problems]
        return not problems

    def loop(self, tracer) -> None:
        deck = self.deck.items
        # Warm-up: one untimed run of the first input, kept as the reference
        # for the byte-identity check of its timed runs.
        try:
            warm, _ = self._execute(deck[0], self.work / "out" / "warmup")
            self.first[deck[0].key] = (deck[0], warm)
        except Exception as exc:
            self.problems.append(f"warm-up ({deck[0].key}): {type(exc).__name__}: {exc}")

        # The deck is fixed by the seed; the loop goes round it for
        # --seconds, and at least once, so a slow machine measures fewer
        # repeats, never other inputs. Untraced, a speed probe runs between
        # any two items (see scale()), and fresh-interpreter set-up samples
        # are spread evenly over the timed seconds.
        timed = tracer is None
        start = time.perf_counter()
        index = 0
        cycles = 0
        before = None
        if timed:
            self.setup.append(setup_sample())
            before = probe()
        while not (cycles and self.measured >= self.args.seconds):
            if time.perf_counter() - start > LOOP_WALL_LIMIT:
                self.problems.append("loop stopped at its wall-time limit")
                break
            position = index % len(deck)
            seconds = self._item(index, deck[position], tracer)
            index += 1
            if index % len(deck) == 0:
                cycles += 1
                if tracer is not None and cycles == 1:
                    self.snapshot = Counter(tracer.counts)
            if not timed:
                if seconds is not None:
                    self.times.append(seconds)
                continue
            after = probe()
            if seconds is not None:
                self.ratios.setdefault(position, []).append(seconds / ((before + after) / 2))
            before = after
            if len(self.setup) < SETUP_SAMPLES * min(self.measured / self.args.seconds, 1.0):
                self.setup.append(setup_sample())
                before = probe()
        while timed and len(self.setup) < SETUP_SAMPLES:
            self.setup.append(setup_sample())
        if timed:
            self.times = self.scale()

    def scale(self) -> list[float]:
        """Seconds per input of the deck at the probe's reference speed.

        The shared host's speed swings by up to 2x, in spells of seconds
        to minutes, so raw item times move with the spells a run happens to
        fall in. The probe is fixed code of the benchmark's own, so its
        time tracks the machine's speed and nothing else: an item's seconds
        over the mean of the probes just before and after it, times
        PROBE_SECONDS, are its seconds on a machine where the probe takes
        PROBE_SECONDS. An input met twice counts once, with its mean.
        """
        return [PROBE_SECONDS * statistics.fmean(r) for _, r in sorted(self.ratios.items())]

    def check_outputs(self) -> tuple[list[float], int]:
        """Oracle and round-trip checks on the first run of each package;
        returns the scored inputs' correctness values and the number of
        verdicts the oracles decided."""
        correctness, decided = [], 0
        for key, (item, outcome) in self.first.items():
            score = key in self.scored
            if self.args.workload == "authoring":
                # No package: score the layout the program states.
                if score:
                    typed = typecheck(parse(item.source.read_text(encoding="utf-8")))
                    built = build_scene(typed, seed=item.seed)
                    layout = SceneLayout(regions=built.regions, objects=built.objects)
                    correctness.append(solution_correctness(typed, layout, item.seed))
                continue
            value, n, problems = checks.check_package(outcome.out_dir, item.seed, score)
            decided += n
            if problems:
                self.failed += 1
                self.problems += [f"{key}: {p}" for p in problems]
            if score:
                correctness.append(value)
        return correctness, decided


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(run: Run, correctness: list[float], peak_rss_mb: float) -> dict:
    return {
        "items_per_s": (len(run.times) / sum(run.times) if run.times else 0.0, "1/s"),
        "correctness_mean": (statistics.fmean(correctness) if correctness else 0.0, "ratio"),
        "setup_s": (statistics.median(run.setup) if run.setup else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def extra_end_to_end(run: Run, correctness: list[float]) -> dict:
    """Printed with the end-to-end metrics but not gated (see README)."""
    full = sum(1 for c in correctness if c == 1.0)
    return {
        "item_s_p50": (statistics.median(run.times) if run.times else 0.0, "s"),
        "full_sat_frac": (full / len(correctness) if correctness else 0.0, "ratio"),
        "fail_frac": (run.failed / max(run.attempted, 1), "ratio"),
    }


def per_layer(run: Run, tracer) -> dict:
    counts = run.snapshot or Counter(tracer.counts)
    totals = tracing.totals(counts)
    inclusive, self_time, calls = tracer.span_seconds()
    items = max(len(run.traced), 1)

    def per_item(span: str):
        return (inclusive[span] / items, "s")

    def ratio(num: float, den: float):
        return (num / den if den else 0.0, "ratio")

    def count(name: str):
        return (totals[name], "count")

    out = {
        "scene.sat_tests": count("scene.sat_tests"),
        "scene.sat_tests_cross_region": count("scene.sat_tests_cross_region"),
        "scene.box_cache_hit_ratio": ratio(
            totals["scene.box_cache_hits"],
            totals["scene.box_cache_hits"] + totals["scene.box_cache_misses"],
        ),
        "scene.inside_calls": count("scene.inside_calls"),
        "scene.supported_calls": count("scene.supported_calls"),
        "scene.footprint_overlap_calls": count("scene.footprint_overlap_calls"),
        "solver.initial_placement_s": per_item("solver.initial_placement"),
        "solver.relaxation_s": per_item("solver.relaxation"),
        "solver.repair_s": per_item("solver.repair"),
        "solver.repair_s_per_iter": (
            inclusive["solver.repair"] / calls["solver.repair"] if calls["solver.repair"] else 0.0,
            "s",
        ),
        "solver.enforce_bounds_s": per_item("solver.enforce_bounds"),
        "solver.select_batch_s": per_item("solver.select_batch"),
        "solver.iterations": count("solver.iterations"),
        "solver.candidates": count("solver.candidates"),
        "solver.moves_accepted": count("solver.moves_accepted"),
        "solver.accept_ratio": ratio(totals["solver.moves_accepted"], totals["solver.candidates"]),
        "constraints.compile_s": per_item("constraints.compile"),
        "constraints.evaluate_calls": count("constraints.evaluate_calls"),
        "export.assemble_s": per_item("export.assemble"),
        "export.assemble_evaluate_calls": (
            counts["constraints.evaluate_calls", "export.assemble"], "count"
        ),
        "export.write_s": per_item("export.write"),
        "export.read_s": per_item("export.read"),
        "export.resolve_region_s": per_item("export.resolve_region"),
        "dsl.parse_s": per_item("dsl.parse"),
        "dsl.typecheck_s": per_item("dsl.typecheck"),
        "dsl.print_s": per_item("dsl.print"),
        "build.build_scene_s": per_item("build.build_scene"),
        "assets.decide_s": per_item("assets.decide"),
        "assets.scored_pairs": count("assets.scored_pairs"),
        "assets.retrieved_ratio": ratio(totals["assets.retrieved"], totals["assets.decisions"]),
        "metrics.object_resemblance_s": per_item("metrics.object_resemblance"),
        "metrics.layout_resemblance_s": per_item("metrics.layout_resemblance"),
        "metrics.embed_calls": count("metrics.embed_calls"),
        "cli.pipeline_s": per_item("cli.pipeline"),
        "cli.pipeline_self_s": (self_time["cli.pipeline"] / items, "s"),
        "trace.overhead_ratio": (
            statistics.median(t / p for t, p in zip(run.traced, run.times)) if run.traced else 0.0,
            "ratio",
        ),
    }
    for provenance in tracing.PROVENANCES:
        out[f"constraints.count.{provenance}"] = count(f"constraints.count.{provenance}")
    for layer in LAYERS:
        layer_self = sum(s for name, s in self_time.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (layer_self / items, "s")
    return out


# ---------------------------------------------------------------------------
# Entry point


def run_one(args) -> int:
    if IMPORT_ERROR is not None:
        print(f"cannot import the program from {ROOT / 'src'}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        started = time.perf_counter()
        run = Run(args, work)
        tracer = tracing.Tracer() if args.trace else None
        looped = time.perf_counter()
        run.loop(tracer)
        # Before the checks, whose oracles build large grids of their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = time.perf_counter()
        correctness, decided = run.check_outputs()
        phases = (looped - started, checked - looped, time.perf_counter() - checked)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write(ROOT / ".bench_work" / "traces" / f"{args.workload}-{args.seed}.jsonl")

    gated = end_to_end(run, correctness, peak_rss_mb)
    shown = {**gated, **extra_end_to_end(run, correctness)}
    if tracer is not None:
        gated = shown = per_layer(run, tracer)
    correct = not run.problems and run.failed == 0
    print(
        f"# {args.workload} seed={args.seed} items={run.attempted} failed={run.failed} "
        f"distinct={len(run.first)} oracle_verdicts={decided} trace={args.trace} "
        f"timed={run.measured:.1f}s wall inputs/loop/checks=%.1f/%.1f/%.1fs" % phases
    )
    for name, (value, unit) in shown.items():
        print(f"{args.workload:10s} {name:34s} {value:14.6g} {unit}")
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    worst = 0
    for workload in WORKLOADS:
        done = subprocess.run([
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

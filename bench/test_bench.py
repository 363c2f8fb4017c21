"""Tests for the benchmark itself: the generators are deterministic per
seed, and every output check fails on a deliberately corrupted package,
layout or text."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE.parent / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import pytest  # noqa: E402

from sthl import constraints, scene, solver  # noqa: E402
from sthl.build import build_scene  # noqa: E402
from sthl.dsl import parse, typecheck  # noqa: E402
from sthl.export import read_package  # noqa: E402
from sthl.metrics import solution_correctness  # noqa: E402
from sthl.scene import SceneLayout  # noqa: E402

SEED = 11


def _texts(items):
    return [item.source.read_text(encoding="utf-8") for item in items]


def test_generators_are_deterministic_per_seed(tmp_path):
    for workload in ("rooms", "house", "authoring"):
        first = workloads.Deck(workload, 7, tmp_path / "a" / workload).items
        again = workloads.Deck(workload, 7, tmp_path / "b" / workload).items
        other = workloads.Deck(workload, 8, tmp_path / "c" / workload).items
        assert _texts(first) == _texts(again)
        assert [(i.room, i.seed) for i in first] == [(i.room, i.seed) for i in again]
        assert _texts(first) != _texts(other)
        assert len({i.seed for i in first}) == len(first)  # each item its own program seed
    assert workloads.asset_index(3) == workloads.asset_index(3) != workloads.asset_index(4)


def test_authoring_programs_hold_on_their_stated_layout():
    source = workloads.authoring_source(5, 15)
    typed = typecheck(parse(source))
    built = build_scene(typed, seed=5)
    layout = SceneLayout(regions=built.regions, objects=built.objects)
    assert len(built.objects) == 15
    assert solution_correctness(typed, layout, seed=5) == 1.0
    for needed in ("rand(", "vec3(", "dot(", "||", "!(", "Number "):
        assert needed in source


def test_house_collision_pairs_mostly_cross_rooms():
    typed = typecheck(parse(workloads.house_source(3, (6, 6, 6))))
    cs = constraints.compile_constraints(typed)
    pairs = [c.assertion for c in cs.constraints if isinstance(c.assertion, constraints.NoCollision)]
    rooms = cs.region_assignments
    cross = sum(rooms[p.first] != rooms[p.second] for p in pairs)
    assert len(pairs) == 153 and cross == 108


def test_house_rooms_hold_the_requested_objects_and_one_ordering_each():
    source = workloads.house_source(5, (4, 6, 5))
    for j, count in enumerate((4, 6, 5)):
        assert source.count(f"object r{j}_item") == count
        assert len(re.findall(rf"assert r{j}_item\d+\.pos\.[xz] <", source)) == 1


def test_scale_turns_probe_ratios_into_seconds():
    fake = SimpleNamespace(ratios={1: [1.0], 0: [2.0, 4.0]})
    assert run.Run.scale(fake) == [3.0 * run.PROBE_SECONDS, 1.0 * run.PROBE_SECONDS]


def _package(tmp_path, name="bedroom"):
    item = workloads.Item(name, workloads.ROOT / "fixtures" / f"{name}.sthl", SEED, T=0)
    out = tmp_path / "pkg"
    workloads.run_item("rooms", item, out, tmp_path / "unused.tsv")
    return out


def _rewrite_scene(package, edit):
    path = package / "scene.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def test_package_checks_pass_on_a_real_package(tmp_path):
    correctness, decided, problems = checks.check_package(_package(tmp_path), SEED)
    assert problems == [] and decided > 0 and 0 < correctness <= 1


def test_round_trip_check_fails_on_non_canonical_or_broken_package(tmp_path):
    package = _package(tmp_path)
    path = package / "scene.json"
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert any("differs" in p for p in checks.check_package(package, SEED)[2])
    manifest = package / "manifest.tsv"
    manifest.write_text(manifest.read_text(encoding="utf-8").splitlines()[0] + "\n")
    assert any("read_package" in p for p in checks.check_package(package, SEED)[2])


def test_report_claims_check_fails_when_objects_are_moved_into_each_other(tmp_path):
    package = _package(tmp_path)

    def stack(doc):
        a, b = doc["objects"][0], doc["objects"][1]
        b["position"] = list(a["position"])

    _rewrite_scene(package, stack)
    problems = checks.check_package(package, SEED)[2]
    assert any(p.startswith("report claims") and "collides" in p for p in problems)


def test_oracle_comparison_fails_on_a_wrong_verdict(tmp_path):
    package = _package(tmp_path)
    pkg = read_package(package)
    layout = pkg.to_layout()
    cs = constraints.compile_constraints(typecheck(parse(pkg.metadata_text)), seed=SEED)
    ctx = cs.context(layout, rng_seed=SEED)
    verdicts = {c.id: constraints.evaluate(c, ctx) for c in cs.constraints}
    oracle = checks.oracle_verdicts(cs, layout)
    assert checks.mismatches(cs, verdicts, oracle) == []
    for kind in (constraints.PROVENANCE_EXPLICIT, constraints.PROVENANCE_COLLISION,
                 constraints.PROVENANCE_BOUNDARY):
        target = next(c for c in cs.constraints if c.provenance == kind and oracle[c.id] is not None)
        flipped = {**verdicts, target.id: not verdicts[target.id]}
        assert len(checks.mismatches(cs, flipped, oracle)) == 1, kind


def test_identity_check_fails_on_different_bytes_or_output(tmp_path):
    package = _package(tmp_path)
    copy = tmp_path / "copy"
    copy.mkdir()
    (copy / "scene.json").write_bytes((package / "scene.json").read_bytes())
    first, again = workloads.Outcome(package), workloads.Outcome(copy)
    assert checks.check_identical(first, again) == []
    _rewrite_scene(copy, lambda doc: doc["objects"][0]["position"].__setitem__(0, 0.5))
    assert checks.check_identical(first, again)
    assert checks.check_identical(
        workloads.Outcome(package, texts={"eval": "f1=1"}), workloads.Outcome(package, texts={"eval": "f1=0"})
    )


def test_isolation_check_fails_when_another_region_moves(tmp_path):
    pkg = read_package(_package(tmp_path))
    moved = replace(pkg, objects=[replace(pkg.objects[0], position=(9.0, 0.5, 9.0))] + pkg.objects[1:])
    assert checks.check_isolation(pkg, pkg, "elsewhere") == []
    assert checks.check_isolation(pkg, moved, "elsewhere")
    assert checks.check_isolation(pkg, moved, pkg.objects[0].region) == []


def test_authoring_checks_fail_on_bad_fmt_or_scores():
    good = "object: precision=1.0000 recall=1.0000 f1=1.0000 (tp=2 fp=0 fn=0)\n"
    good += good.replace("object", "layout") + good.replace("object", "overall")
    texts = {"fmt": "object a;\n", "refmt": "object a;\n", "eval": good}
    assert checks.check_authoring(texts) == []
    assert checks.check_authoring({**texts, "refmt": "object  a;\n"})
    assert checks.check_authoring({**texts, "eval": good.replace("f1=1.0000", "f1=0.5000", 1)})


def test_tracer_counts_and_restores_wrapped_functions(tmp_path):
    original = scene.collision_margin
    tracer = tracing.Tracer()
    for index, (name, T) in enumerate((("livingroom", 0), ("contradiction", 2))):
        item = workloads.Item(name, workloads.ROOT / "fixtures" / f"{name}.sthl", SEED, T=T)
        out = tmp_path / name
        tracer.run_item(index, lambda: workloads.run_item("rooms", item, out, tmp_path / "x"))
    assert scene.collision_margin is original
    totals = tracing.totals(tracer.counts)
    assert totals["scene.sat_tests"] > 0 and totals["constraints.evaluate_calls"] > 0
    assert totals["solver.iterations"] == 2  # the contradiction uses every iteration
    assert totals["scene.sat_tests_cross_region"] == 0
    inclusive, self_time, calls = tracer.span_seconds()
    assert calls["bench.item"] == 2 and calls["cli.pipeline"] == 2
    assert 0 <= self_time["cli.pipeline"] <= inclusive["cli.pipeline"]


def test_tracer_fails_when_a_wrapped_function_is_gone(tmp_path, monkeypatch):
    original = scene.collision_margin
    monkeypatch.delattr(solver, "_candidates")
    item = workloads.Item("bedroom", workloads.ROOT / "fixtures" / "bedroom.sthl", SEED, T=0)
    run = lambda: workloads.run_item("rooms", item, tmp_path / "out", tmp_path / "x")  # noqa: E731
    with pytest.raises(AttributeError, match="_candidates"):
        tracing.Tracer().run_item(0, run)
    assert scene.collision_margin is original

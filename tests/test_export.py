"""Scene package assembly, round-trip IO, and partial regeneration."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from sthl import export
from sthl.assets import AssetDecision, AssetHandle, AssetQuery
from sthl.build import build_scene
from sthl.cli import run
from sthl.constraints import compile_constraints, satisfaction_ratio
from sthl.dsl import parse, typecheck
from sthl.errors import BuildError, FormatError, IoError, TypeCheckError
from sthl.export import (
    assemble,
    read_package,
    resolve_region,
    scene_document,
    write_package,
)
from sthl.scene import Region, SceneLayout, SceneObject, Transform
from sthl.solver import SolverConfig, solve

ROOT = Path(__file__).parent.parent
SOURCE = """\
region room;
room.pos <- vec3(5, 0, 5);
room.scale <- vec3(10, 3, 10);
object table;
table.scale <- vec3(1.2, 0.75, 0.8);
object lamp;
lamp.scale <- vec3(0.3, 1, 0.3);
assert lamp.pos.y > table.pos.y + table.scale.y / 2;
"""


def decision_for(obj_id: str, extents=(1.0, 1.0, 1.0)) -> AssetDecision:
    return AssetDecision(
        query=AssetQuery(text=f"a 3D model of a {obj_id}", kind="object", category=obj_id),
        best_candidate=None,
        best_score=0.5,
        verdict="generated",
        model=AssetHandle(uri=f"generated://{obj_id}", native_extents=extents),
    )


def solved_package(seed: int = 3):
    program = parse(SOURCE)
    typed = typecheck(program)
    from sthl.build import build_scene

    built = build_scene(typed, seed=seed)
    cs = compile_constraints(typed, seed=seed)
    cfg = SolverConfig(rng_seed=seed)
    report = solve(built.objects, built.regions, cs, cfg)
    decisions = {o.id: decision_for(o.id) for o in built.objects}
    pkg = assemble(report, decisions, program)
    return pkg, cs, report


# ---------------------------------------------------------------------------
# assemble


def test_engine_scale_is_extents_over_native():
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    table = SceneObject(
        "table",
        dimensions=(1.0, 0.75, 1.0),
        transform=Transform(pos=(5.0, 0.375, 5.0)),
        region="room",
    )
    layout = SceneLayout(regions=[room], objects=[table])
    program = parse("region room; object table;")
    cs = compile_constraints(typecheck(program))
    report = solve([table], [room], cs, SolverConfig())
    decisions = {"table": decision_for("table", extents=(2.0, 1.5, 2.0))}
    pkg = assemble(report, decisions, program)
    packed = pkg.objects[0]
    assert packed.scale == pytest.approx((0.5, 0.5, 0.5))


def test_asset_without_native_extents_is_packaged_as_a_unit_cube():
    program = parse(SOURCE)
    typed = typecheck(program)
    built = build_scene(typed, seed=3)
    cs = compile_constraints(typed, seed=3)
    report = solve(built.objects, built.regions, cs, SolverConfig(rng_seed=3))
    decisions = {
        o.id: AssetDecision(
            query=AssetQuery(text="x", kind="object"),
            best_candidate=None,
            best_score=0.1,
            verdict="retrieved",
            model=AssetHandle(uri="models/unknown.glb", native_extents=None),
        )
        for o in built.objects
    }
    pkg = assemble(report, decisions, program)
    layout = report.best_layout
    for packed, entry in zip(pkg.objects, pkg.manifest):
        assert packed.scale == layout.object(packed.id).extents()
        assert entry.native_extents == (1.0, 1.0, 1.0)


def test_snap_exact_contact_is_identity():
    pkg, cs, report = solved_package()
    lamp = next(o for o in pkg.objects if o.id == "lamp")
    # gravity held in the solved layout, so post-snap contact is exact
    layout = pkg.to_layout()
    from sthl.scene import bottom_y, support_surface_y

    obj = layout.object("lamp")
    assert bottom_y(obj) == pytest.approx(support_surface_y(obj, layout), abs=1e-9)


def test_snap_never_lowers_satisfaction():
    pkg, cs, report = solved_package()
    layout = pkg.to_layout()
    ctx = cs.context(layout, rng_seed=3)
    assert satisfaction_ratio(cs, ctx) >= report.best_ratio


def test_snap_reverted_when_constraint_would_flip():
    # A shelf floats 4 mm above a cabinet (within snap tolerance) with a
    # constraint pinning its exact height; snapping would break it.
    program = parse(
        "region room;\n"
        "room.pos <- vec3(5, 0, 5); room.scale <- vec3(10, 3, 10);\n"
        "object cabinet; object shelf;\n"
        "assert shelf.pos.y = 1.104;\n"
    )
    typed = typecheck(program)
    cs = compile_constraints(typed)
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    cabinet = SceneObject(
        "cabinet", transform=Transform(pos=(5.0, 0.5, 5.0)), region="room"
    )
    shelf = SceneObject(
        "shelf",
        transform=Transform(pos=(5.0, 1.104, 5.0), scale=(0.8, 0.2, 0.8)),
        region="room",
    )
    layout = SceneLayout(regions=[room], objects=[cabinet, shelf])
    report = solve([cabinet, shelf], [room], cs, SolverConfig(max_iterations=0))
    decisions = {o.id: decision_for(o.id) for o in layout.objects}
    report = replace(report, best_layout=layout, verdicts=cs.verdicts(layout))
    pkg = assemble(report, decisions, program)
    assert "shelf" in pkg.snap_reverted
    packed = next(o for o in pkg.objects if o.id == "shelf")
    assert packed.position[1] == pytest.approx(1.104)


def test_missing_decision_rejected():
    pkg, cs, report = solved_package()
    program = parse(SOURCE)
    with pytest.raises(ValueError, match="lamp"):
        assemble(report, {"table": decision_for("table")}, program)


# ---------------------------------------------------------------------------
# write/read round trip


def test_package_files_written(tmp_path):
    pkg, _, _ = solved_package()
    paths = write_package(pkg, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert names == ["manifest.tsv", "metadata.sthl", "report.txt", "scene.json"]


def test_write_read_round_trip_transforms(tmp_path):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    loaded = read_package(tmp_path / "out")
    assert [o.id for o in loaded.objects] == [o.id for o in pkg.objects]
    for a, b in zip(pkg.objects, loaded.objects):
        assert a.position == pytest.approx(b.position, abs=1e-6)
        assert a.rotation_xzy == pytest.approx(b.rotation_xzy, abs=1e-6)
        assert a.scale == pytest.approx(b.scale, abs=1e-6)
    assert loaded.solver_meta["seed"] == pkg.solver_meta["seed"]


def test_write_is_byte_stable(tmp_path):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "one")
    write_package(read_package(tmp_path / "one"), tmp_path / "two")
    for name in ("scene.json", "manifest.tsv", "metadata.sthl"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_metadata_reparses_to_original_ast(tmp_path):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    loaded = read_package(tmp_path / "out")
    assert parse(loaded.metadata_text) == parse(SOURCE)


def test_empty_scene_regions_only(tmp_path):
    program = parse("region room;")
    typed = typecheck(program)
    cs = compile_constraints(typed)
    room = Region("room", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)))
    report = solve([], [room], cs, SolverConfig())
    pkg = assemble(report, {}, program)
    write_package(pkg, tmp_path / "empty")
    loaded = read_package(tmp_path / "empty")
    assert loaded.objects == []
    assert len(loaded.regions) == 1


def test_tampered_scene_missing_object_names_id(tmp_path):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    scene_path = tmp_path / "out" / "scene.json"
    doc = json.loads(scene_path.read_text())
    removed = doc["objects"].pop(0)
    scene_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    with pytest.raises(FormatError, match=removed["id"]):
        read_package(tmp_path / "out")


def test_corrupt_json_reports_file_and_line(tmp_path):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    scene_path = tmp_path / "out" / "scene.json"
    scene_path.write_text(scene_path.read_text()[:-30])
    with pytest.raises(FormatError, match="scene.json"):
        read_package(tmp_path / "out")


@pytest.mark.parametrize(
    "name", [export.SCENE_FILE, export.MANIFEST_FILE, export.METADATA_FILE, export.REPORT_FILE]
)
def test_package_file_that_is_not_utf8_is_an_error_naming_it(tmp_path, name):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    path = tmp_path / "out" / name
    path.write_bytes(path.read_bytes()[:5] + b"\xff" + path.read_bytes()[5:])
    message = f"{path}: not UTF-8 text: byte 0xff at offset 5: invalid start byte"
    with pytest.raises(IoError) as exc:
        read_package(tmp_path / "out")
    assert str(exc.value) == message


def test_manifest_extra_object_rejected(tmp_path):
    pkg, _, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    manifest = tmp_path / "out" / "manifest.tsv"
    manifest.write_text(
        manifest.read_text() + "ghost\tmodels/g.glb\tretrieved\t0.9\t1,1,1\t1,1,1\n"
    )
    with pytest.raises(FormatError, match="ghost"):
        read_package(tmp_path / "out")


@pytest.fixture(scope="module")
def livingroom_package(tmp_path_factory):
    out = tmp_path_factory.mktemp("livingroom") / "pkg"
    assert run(["pipeline", str(ROOT / "fixtures" / "livingroom.sthl"), "--T", "0",
                "--out", str(out)]) == 0
    return out


def _set_object(key, value):
    def edit(doc):
        doc["objects"][0][key] = value
        return doc
    return edit


def _set_region_vertices(vertices):
    def edit(doc):
        doc["regions"][0]["vertices"] = vertices
        return doc
    return edit


def _set_manifest(field, text):
    def edit(rows):
        rows[0][field] = text
        return rows
    return edit


def _set_solver(key, value):
    def edit(doc):
        doc["solver"][key] = value
        return doc
    return edit


# Each edit of a package `sthl pipeline` wrote; then the start of the
# message after the file name (scene.json, or manifest.tsv and its line).
# Each used to pass `read_package` and fail in `resolve_region` or
# `verdicts_for`, or be accepted.
BAD_PACKAGES = {
    "text-position": (
        _set_object("position", ["a", 0, 0]),
        "scene.json: malformed scene document: expected a finite number, not 'a'",
    ),
    "list-document": (lambda doc: [doc], "scene.json: malformed scene document: 'list' object"),
    "connection-no-regionB": (
        lambda doc: {**doc, "connections": [{"regionA": "room", "dimensions": [1, 2, 0.1]}]},
        "scene.json: scene document lacks key 'regionB'",
    ),
    "light-no-id": (
        lambda doc: {**doc, "lights": [{"position": [0, 2, 0]}]},
        "scene.json: scene document lacks key 'id'",
    ),
    "nan-position": (
        _set_object("position", [float("nan"), 0, 0]),
        "scene.json: malformed scene document: expected a finite number, not nan",
    ),
    "zero-scale": (
        _set_object("scale", [0, 1, 1]),
        "scene.json: malformed scene document: expected 3 positive numbers, not [0, 1, 1]",
    ),
    "unknown-region": (
        _set_object("region", "nowhere"),
        "scene.json: malformed scene document: object 'sofa' names unknown region 'nowhere'",
    ),
    "clockwise-region": (
        _set_region_vertices([[0, 0], [0, 4], [4, 4], [4, 0]]),
        "scene.json: malformed scene document: region 'room' polygon must be counterclockwise",
    ),
    # Positive signed area (75), so it is the simplicity check that refuses it.
    "self-intersecting-region": (
        _set_region_vertices([[0, 0], [10, 0], [10, 10], [0, 10], [5, -5]]),
        "scene.json: malformed scene document: region 'room' polygon self-intersects",
    ),
    "short-extents": (
        _set_manifest(4, "1,1"),
        "manifest.tsv:1: malformed manifest row: expected a list of 3 numbers, not [1.0, 1.0]",
    ),
    "zero-extent": (
        _set_manifest(4, "0,1,1"),
        "manifest.tsv:1: malformed manifest row: expected 3 positive numbers",
    ),
    "nan-extent": (
        _set_manifest(4, "nan,1,1"),
        "manifest.tsv:1: malformed manifest row: expected a finite number, not nan",
    ),
    "long-dimensions": (
        _set_manifest(5, "1,1,1,1"),
        "manifest.tsv:1: malformed manifest row: expected a list of 3 numbers",
    ),
    "float-seed": (
        _set_solver("seed", 7.0),
        "scene.json: malformed scene document: expected int, not 7.0",
    ),
    "text-k": (
        _set_solver("k", "3"),
        "scene.json: malformed scene document: expected int, not '3'",
    ),
    "zero-k": (
        _set_solver("k", 0),
        "scene.json: malformed scene document: batch size k must be >= 1",
    ),
    "bool-T": (
        _set_solver("T", True),
        "scene.json: malformed scene document: expected int, not True",
    ),
    "negative-T": (
        _set_solver("T", -1),
        "scene.json: malformed scene document: max iterations T must be >= 0",
    ),
}


@pytest.mark.parametrize("case", list(BAD_PACKAGES))
def test_malformed_package_is_a_format_error_naming_the_file(livingroom_package, tmp_path, case):
    edit, message = BAD_PACKAGES[case]
    out = tmp_path / "pkg"
    shutil.copytree(livingroom_package, out)
    if message.startswith(export.SCENE_FILE):
        path = out / export.SCENE_FILE
        path.write_text(json.dumps(edit(json.loads(path.read_text()))), encoding="utf-8")
    else:
        path = out / export.MANIFEST_FILE
        rows = edit([line.split("\t") for line in path.read_text().splitlines()])
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        read_package(out)
    assert str(exc.value).startswith(f"{out}/{message}")


def test_type_error_in_an_edited_metadata_names_the_file(livingroom_package, tmp_path):
    out = tmp_path / "pkg"
    shutil.copytree(livingroom_package, out)
    path = out / export.METADATA_FILE
    text = path.read_text()
    obj = read_package(out).objects[0]
    path.write_text(f"{text}assert {obj.id}.color > 1;\n")
    pkg = read_package(out)
    line = len(text.splitlines()) + 1
    for call in (lambda: resolve_region(pkg, obj.region), lambda: pkg.verdicts_for(obj.id)):
        with pytest.raises(TypeCheckError) as exc:
            call()
        assert (exc.value.filename, exc.value.line) == (str(path), line)


def test_a_value_no_scene_can_hold_in_an_edited_metadata_is_a_build_error(tmp_path):
    source = tmp_path / "r.sthl"
    source.write_text("region r;\nr.scale <- vec3(4, 3, 2);\nobject a;\nassert r.scale.x = 4;\n")
    out = tmp_path / "pkg"
    assert run(["pipeline", str(source), "--T", "0", "--out", str(out)]) == 0
    path = out / export.METADATA_FILE
    path.write_text(path.read_text().replace("r.scale <- vec3(4, 3, 2);", "r.scale <- r.scale;"))
    pkg = read_package(out)
    for call in (lambda: resolve_region(pkg, "r"), lambda: pkg.verdicts_for("a")):
        with pytest.raises(BuildError) as exc:
            call()
        assert (exc.value.filename, exc.value.line, exc.value.column) == (str(path), 2, 1)


def test_a_package_read_back_reads_a_region_as_stated(tmp_path):
    source = tmp_path / "rotated.sthl"
    source.write_text(
        "region r;\nr.scale <- vec3(4, 3, 2);\nr.rot <- rot(0, 0, 90);\nobject a;\n"
        "assert r.scale.x = 4;\nassert r.rot.y = 90;\n"
    )
    out = tmp_path / "pkg"
    assert run(["pipeline", str(source), "--T", "0", "--out", str(out)]) == 0
    resolved = resolve_region(read_package(out), "r")
    for verdict in ("0 explicit satisfied r.scale.x = 4", "1 explicit satisfied r.rot.y = 90"):
        assert resolved.report_text.count(verdict) == 2  # the solve and the re-solve


def test_wall_slabs_in_scene_document():
    pkg, _, _ = solved_package()
    doc = scene_document(pkg)
    walls = doc["regions"][0]["walls"]
    assert len(walls) == 4
    assert all(w["thickness"] == pytest.approx(0.03) for w in walls)


def test_verdict_lookup_by_object(tmp_path):
    pkg, cs, _ = solved_package()
    write_package(pkg, tmp_path / "out")
    loaded = read_package(tmp_path / "out")
    verdicts = loaded.verdicts_for("lamp")
    assert verdicts, "lamp participates in constraints"
    ids = {c.id for c, _ in verdicts}
    expected = {c.id for c in cs.constraints if "lamp" in c.involved}
    assert ids == expected


W_BELOW = "region room; object a; Number w; w <- rand(1, 3); assert w < 2.5;"


def test_a_package_states_the_config_it_was_solved_with(tmp_path):
    # At seed 42, w is drawn below 2.5; at seed 0 it is 2.69. A package
    # that recorded seed 0 would disagree with its own report.
    program = parse(W_BELOW)
    typed = typecheck(program)
    built = build_scene(typed, seed=42)
    cs = compile_constraints(typed, seed=42)
    report = solve(built.objects, built.regions, cs, SolverConfig(batch_size=2, rng_seed=42))
    write_package(assemble(report, {"a": decision_for("a")}, program), tmp_path / "pkg")
    pkg = read_package(tmp_path / "pkg")
    assert pkg.solver_meta["seed"] == 42
    assert pkg.report_text.splitlines()[1] == "config: seed=42 k=2 T=5"
    claims = {
        int(line.split()[0]): line.split()[2] == "satisfied"
        for line in pkg.report_text.split("# constraints\n")[1].splitlines()
    }
    assert claims[0] is True
    assert [(c.id, ok) for c, ok in pkg.verdicts_for("w")] == [(0, True)]
    assert all(claims[c.id] == ok for c, ok in pkg.verdicts_for("a"))


# ---------------------------------------------------------------------------
# partial regeneration


TWO_ROOM_SOURCE = """\
region left; left.pos <- vec3(2.5, 0, 2.5); left.scale <- vec3(5, 3, 5);
region right; right.pos <- vec3(8.5, 0, 2.5); right.scale <- vec3(5, 3, 5);
object couch; couch.scale <- vec3(1.8, 0.8, 0.9);
object desk; desk.scale <- vec3(1.4, 0.75, 0.7);
object bed; bed.scale <- vec3(1.6, 0.5, 2);
assert inside(couch, left);
assert inside(desk, left);
assert inside(bed, right);
"""


def two_room_package():
    program = parse(TWO_ROOM_SOURCE)
    typed = typecheck(program)
    from sthl.build import build_scene

    built = build_scene(typed, seed=7)
    cs = compile_constraints(typed, seed=7)
    cfg = SolverConfig(rng_seed=7)
    report = solve(built.objects, built.regions, cs, cfg)
    decisions = {o.id: decision_for(o.id) for o in built.objects}
    return assemble(report, decisions, program)


def test_resolve_region_isolation(tmp_path):
    pkg = two_room_package()
    # delete the desk, then re-solve only the left room
    pkg.objects = [o for o in pkg.objects if o.id != "desk"]
    pkg.manifest = [m for m in pkg.manifest if m.object_id != "desk"]
    resolved = resolve_region(pkg, "left", SolverConfig(rng_seed=99))
    before = {o.id: o for o in pkg.objects}
    after = {o.id: o for o in resolved.objects}
    assert set(after) == set(before)
    # the right room's object is byte-identical
    assert after["bed"] == before["bed"]
    # the re-solved layout still satisfies the left room's constraints
    layout = resolved.to_layout()
    from sthl.scene import inside

    assert inside(layout.object("couch"), layout.region("left"))


def test_resolve_region_write_read_identity(tmp_path):
    pkg = two_room_package()
    write_package(pkg, tmp_path / "orig")
    resolved = resolve_region(pkg, "left", SolverConfig(rng_seed=41))
    write_package(resolved, tmp_path / "resolved")
    orig_doc = json.loads((tmp_path / "orig" / "scene.json").read_text())
    new_doc = json.loads((tmp_path / "resolved" / "scene.json").read_text())
    orig_bed = next(o for o in orig_doc["objects"] if o["id"] == "bed")
    new_bed = next(o for o in new_doc["objects"] if o["id"] == "bed")
    assert orig_bed == new_bed


def test_resolve_region_unknown_region():
    pkg = two_room_package()
    with pytest.raises(KeyError):
        resolve_region(pkg, "attic")


def test_package_read_parses_its_program_once(tmp_path, monkeypatch):
    write_package(two_room_package(), tmp_path / "pkg")
    calls = []

    def counting_parse(text, *args, **kwargs):
        calls.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(export, "parse", counting_parse)
    loaded = read_package(tmp_path / "pkg")
    resolved = resolve_region(loaded, "left", SolverConfig(rng_seed=5))
    assert loaded.verdicts_for("couch") and resolved.verdicts_for("bed")
    assert loaded.program() is resolved.program()
    assert calls == [loaded.metadata_text]

    resolved.metadata_text += "object lamp;\n"
    assert [s.name for s in resolved.program().statements[-1:]] == ["lamp"]
    assert len(calls) == 2
    assert loaded.program() is not resolved.program()


def test_write_rejects_metadata_that_does_not_parse(tmp_path):
    pkg = two_room_package()
    pkg.metadata_text = "object ;\n"
    with pytest.raises(FormatError, match="does not re-parse"):
        write_package(pkg, tmp_path / "pkg")
    assert not (tmp_path / "pkg").exists()


# ---------------------------------------------------------------------------
# Snap re-checks


def test_snap_reverted_when_a_variable_pins_the_height():
    # As test_snap_reverted_when_constraint_would_flip, but the height is
    # pinned through a variable, so the constraint names `h`, not `shelf`.
    program = parse(
        "region room;\n"
        "room.pos <- vec3(5, 0, 5); room.scale <- vec3(10, 3, 10);\n"
        "object cabinet; object shelf; Number h;\n"
        "h <- shelf.pos.y;\n"
        "assert h = 1.104;\n"
    )
    cs = compile_constraints(typecheck(program))
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    cabinet = SceneObject("cabinet", transform=Transform(pos=(5.0, 0.5, 5.0)), region="room")
    shelf = SceneObject(
        "shelf", transform=Transform(pos=(5.0, 1.104, 5.0), scale=(0.8, 0.2, 0.8)), region="room"
    )
    layout = SceneLayout(regions=[room], objects=[cabinet, shelf])
    report = solve([cabinet, shelf], [room], cs, SolverConfig(max_iterations=0))
    decisions = {o.id: decision_for(o.id) for o in layout.objects}
    report = replace(report, best_layout=layout, verdicts=cs.verdicts(layout))
    pkg = assemble(report, decisions, program)
    assert "shelf" in pkg.snap_reverted


def test_snap_reverted_when_it_would_unsupport_another_object():
    # The cabinet floats 4 mm above the floor and the book 3 mm above the
    # cabinet. Snapping the cabinet down would leave the book 7 mm above
    # it, beyond the 5 mm support tolerance, so that snap is reverted and
    # the book snaps onto the cabinet where it stands.
    program = parse(
        "region room;\n"
        "room.pos <- vec3(5, 0, 5); room.scale <- vec3(10, 3, 10);\n"
        "object cabinet; object book;\n"
    )
    cs = compile_constraints(typecheck(program))
    room = Region("room", ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)))
    cabinet = SceneObject("cabinet", transform=Transform(pos=(5.0, 0.504, 5.0)), region="room")
    book = SceneObject(
        "book", transform=Transform(pos=(5.0, 1.057, 5.0), scale=(0.3, 0.1, 0.2)), region="room"
    )
    layout = SceneLayout(regions=[room], objects=[cabinet, book])
    report = solve([cabinet, book], [room], cs, SolverConfig(max_iterations=0))
    decisions = {o.id: decision_for(o.id) for o in layout.objects}
    report = replace(report, best_layout=layout, verdicts=cs.verdicts(layout))
    pkg = assemble(report, decisions, program)
    assert pkg.snap_reverted == ("cabinet",)
    packed = {o.id: o.position[1] for o in pkg.objects}
    assert packed["cabinet"] == pytest.approx(0.504)
    assert packed["book"] == pytest.approx(1.054)

"""CLI behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sthl.cli import run
from sthl.dsl.parser import MAX_NESTING
from sthl.errors import SthlError
from sthl.export import read_package, resolve_region
from sthl.solver import SolverConfig

from conftest import child_env
from scenegen import generate_fixture

FIXTURES = Path(__file__).parent.parent / "fixtures"
LIVINGROOM = str(FIXTURES / "livingroom.sthl")
CONTRADICTION = str(FIXTURES / "contradiction.sthl")
BEDROOM = str(FIXTURES / "bedroom.sthl")


def test_parse_fixture_exits_zero(capsys):
    assert run(["parse", LIVINGROOM]) == 0


def test_parse_json_ast(capsys):
    assert run(["parse", LIVINGROOM, "--json-ast"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["stmt"] == "declare"


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.sthl"
    bad.write_text("assert missing > 1;")
    assert run(["parse", str(bad)]) == 1
    assert "missing" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert run(["parse", "no_such_file.sthl"]) == 1


def test_fmt_prints_canonical_text(capsys):
    assert run(["fmt", LIVINGROOM]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "region room;"


_OR_CHAIN = " || ".join(["a.pos.y - 1 - 2 < 3"] * 2500)
LONG_CHAINS = {
    "sum": "Number w;\nw <- " + " + ".join(["a.pos.x"] * 5000) + ";\n",
    "and": "assert " + " && ".join(f"a.pos.x > {i}" for i in range(5000)) + ";\n",
    "or": f"assert {_OR_CHAIN};\n",
}


def _reassigned(value: str) -> str:
    """`v` reassigned to `value`, which reads `v`, 1,500 times."""
    body = f"v <- {value};\n" * 1500
    return f"Number v;\nv <- 1;\n{body}a.pos <- vec3(v, 0, 0);\nassert v > 0;\n"


@pytest.mark.parametrize("body", LONG_CHAINS.values(), ids=LONG_CHAINS.keys())
def test_fmt_and_json_ast_handle_long_flat_chains(tmp_path, capsys, body):
    # A 5,000-term left-deep chain parses in a loop and prints in a loop;
    # nesting it 5,000 deep would exceed the interpreter's recursion limit.
    path = tmp_path / "chain.sthl"
    path.write_text("object a;\n" + body)
    assert run(["fmt", str(path)]) == 0
    printed = capsys.readouterr().out
    path.write_text(printed)
    assert run(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == printed
    assert run(["parse", str(path), "--json-ast"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[-1]["stmt"] in ("assign", "assert")


@pytest.mark.parametrize(
    "body",
    [
        *LONG_CHAINS.values(),
        "assert " + " && ".join(["inside(a, r)"] * 5000) + ";\n",
        # A false operand before each of 100 nested parentheses, so that
        # evaluation descends all of them to the chain inside.
        "assert " + "a.pos.x < -1 || (" * 100 + _OR_CHAIN + ")" * 100 + ";\n",
        # Freezing substitutes each binding into the next reassignment, so
        # these are right-deep trees 1,500 and 3,000 levels deep.
        _reassigned("1 + v"),
        _reassigned("0.5 * (1 + v)"),
    ],
    ids=[*LONG_CHAINS, "inside", "nested", "right-deep", "right-deep-mixed"],
)
def test_commands_handle_long_flat_chains(tmp_path, capsys, body):
    # Type checking, freezing, compiling, solving and evaluating loop over
    # a chain of one operator, so its length costs no Python frames; an
    # arithmetic right operand is entered without a call.
    path = tmp_path / "chain.sthl"
    path.write_text("region r;\nobject a;\n" + body)
    assert run(["check", str(path)]) == 0
    assert run(["pipeline", str(path), "--T", "1", "--out", str(tmp_path / "pkg")]) == 0
    assert run(["eval", "--gen", str(path), "--gt", str(path)]) == 0


def test_check_reports_counts(capsys):
    assert run(["check", BEDROOM]) == 0
    err = capsys.readouterr().err
    assert "3 objects" in err and "hidden" in err


UNASSIGNED = "region room; object a; object b; Number g; assert a.pos.x + g < b.pos.x;\n"


@pytest.mark.parametrize("command", ["check", "solve", "pipeline", "eval"])
def test_never_assigned_variable_is_a_located_error(tmp_path, capsys, command):
    path = tmp_path / "g.sthl"
    path.write_text(UNASSIGNED)
    argv = {
        "check": ["check", path],
        "solve": ["solve", path, "--out", tmp_path / "solve.json"],
        "pipeline": ["pipeline", path, "--out", tmp_path / "pkg"],
        "eval": ["eval", "--gen", path, "--gt", path],
    }[command]
    assert run([str(arg) for arg in argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:1:61: variable 'g' is read but never assigned\n"
    )


# Each type-checks; `check` used to pass the first two, and every command
# that builds ended them with an unlocated or misattributed error.
BINDING_ORDER = [
    ("region r; object a; Bool b; b <- b; assert b = b;",
     "1:29: circular binding for variable 'b'"),
    ("region r; object a; Number x; x <- x + 1; assert a.pos.x > x;",
     "1:31: circular binding for variable 'x'"),
    ("region r; object a; Number g; a.pos <- vec3(g, 0, 0); g <- 1;",
     "1:45: a.pos reads variable 'g' before it is assigned"),
    ("region r; object c; Number a; Number b; b <- a + 1; a <- 2; c.pos <- vec3(b, 0, 0);",
     "1:46: c.pos reads variable 'a' before it is assigned"),
]


@pytest.mark.parametrize("command", ["check", "pipeline"])
@pytest.mark.parametrize(
    "source, where", BINDING_ORDER, ids=["bool-cycle", "number-cycle", "later", "through-variable"]
)
def test_binding_order_error_is_located(tmp_path, capsys, command, source, where):
    path = tmp_path / "v.sthl"
    path.write_text(source + "\n")
    argv = [command, str(path)]
    if command == "pipeline":
        argv += ["--out", str(tmp_path / "pkg")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {path}:{where}\n"


@pytest.mark.parametrize(
    "statements,where",
    [
        ("r.pos <- vec3(100000000000000000000, 0, 0); r.scale <- vec3(1, 3, 1);",
         "1:11: r.pos leaves the region no floor area, got (1e+20, 0, 0)"),
        ("r.scale <- vec3({tiny}, 3, {tiny});",
         "1:11: r.scale leaves the region no floor area, got (1e-200, 3, 1e-200)"),
    ],
)
def test_region_with_no_floor_area_is_a_located_error(tmp_path, capsys, statements, where):
    tiny = " * ".join(["0.00000001"] * 25)  # 1e-200, a footprint of 1e-400
    path = tmp_path / "r.sthl"
    path.write_text(f"region r; {statements.format(tiny=tiny)} object a;\n")
    assert run(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{where}\n"


def test_solve_writes_output_and_report(tmp_path, capsys):
    out = tmp_path / "solve.json"
    report = tmp_path / "report.txt"
    code = run(
        ["solve", BEDROOM, "--seed", "5", "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["bestRatio"] == 1.0
    assert "# constraints" in report.read_text()


def test_solve_contradiction_is_not_an_error(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert run(["solve", CONTRADICTION, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["terminated"] == "iterationLimit"
    assert doc["report"]["bestRatio"] < 1.0


def test_invalid_k_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["solve", BEDROOM, "--k", "0", "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_assets_decisions_stdout(capsys):
    assert run(["assets", BEDROOM, "--tau", "0.652"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    for line in lines:
        fields = line.split("\t")
        assert fields[2] in ("retrieved", "generated")


def test_assets_tau_extremes(tmp_path, capsys):
    db = tmp_path / "index.tsv"
    db.write_text(
        "a1\tmodels/a1.glb\tthumbs/a1.png\ta simple wooden bed\n"
        "a2\tmodels/a2.glb\tthumbs/a2.png\tan oak nightstand\n"
    )
    assert run(["assets", BEDROOM, "--db", str(db), "--tau", "0.0"]) == 0
    low = capsys.readouterr().out
    assert all(l.split("\t")[2] == "retrieved" for l in low.splitlines() if l)
    assert run(["assets", BEDROOM, "--db", str(db), "--tau", "1.0"]) == 0
    high = capsys.readouterr().out
    assert all(l.split("\t")[2] == "generated" for l in high.splitlines() if l)


def test_export_from_solve_output(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert run(["solve", BEDROOM, "--seed", "2", "--out", str(out)]) == 0
    pkg_dir = tmp_path / "pkg"
    assert run(["export", str(out), "--out", str(pkg_dir)]) == 0
    assert (pkg_dir / "scene.json").exists()
    assert (pkg_dir / "metadata.sthl").exists()


def test_reports_state_the_config_they_were_solved_with(tmp_path, capsys):
    options = ["--seed", "9", "--k", "2", "--T", "3"]
    solved, report = tmp_path / "solve.json", tmp_path / "report.txt"
    assert run(["solve", LIVINGROOM, *options, "--out", str(solved), "--report", str(report)]) == 0
    assert run(["pipeline", LIVINGROOM, *options, "--out", str(tmp_path / "pkg")]) == 0
    assert run(["export", str(solved), "--out", str(tmp_path / "exported")]) == 0
    for text in (report, tmp_path / "pkg" / "report.txt", tmp_path / "exported" / "report.txt"):
        assert text.read_text().splitlines()[1] == "config: seed=9 k=2 T=3"


@pytest.mark.parametrize("name, region", [("bedroom", "bedroom"), ("livingroom", "room")])
def test_resolve_region_defaults_to_the_recorded_config(tmp_path, capsys, name, region):
    out = tmp_path / "pkg"
    argv = ["pipeline", str(FIXTURES / f"{name}.sthl"), "--seed", "7", "--T", "0", "--k", "1"]
    assert run([*argv, "--out", str(out)]) == 0
    pkg = read_package(out)
    resolved = resolve_region(pkg, region)
    appended = resolved.report_text[len(pkg.report_text):].splitlines()
    assert appended[:3] == [f"# region {region} re-solved", "# sthl solve report",
                            "config: seed=7 k=1 T=0"]
    cfg = SolverConfig(batch_size=1, max_iterations=0, rng_seed=7)
    assert resolved == resolve_region(pkg, region, cfg)


def test_solve_output_config_holds_the_three_solver_values(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert run(["solve", LIVINGROOM, "--seed", "7", "--k", "2", "--T", "4", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config == {"batch_size": 2, "max_iterations": 4, "rng_seed": 7}


# The three fixtures at seed 7, and twelve scenegen rooms (n = 6..16).
STAGE_INPUTS = [*(("fixture", name, 7) for name in ("livingroom", "bedroom", "contradiction")),
                *(("scenegen", 6 + seed % 11, seed) for seed in range(12))]


@pytest.mark.parametrize("T", ["0", "5"], ids=lambda T: f"T{T}")
@pytest.mark.parametrize("kind, name, seed", STAGE_INPUTS, ids=lambda v: str(v))
def test_pipeline_is_solve_then_export(tmp_path, capsys, kind, name, seed, T):
    if kind == "fixture":
        path = str(FIXTURES / f"{name}.sthl")
    else:
        path = str(tmp_path / "scene.sthl")
        Path(path).write_text(generate_fixture(seed, name).source, encoding="utf-8")
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    solved, decisions = tmp_path / "solve.json", tmp_path / "decisions.tsv"
    assert run(["solve", path, "--seed", str(seed), "--T", T, "--out", str(solved)]) == 0
    assert run(["export", str(solved), "--out", str(staged)]) == 0
    assert run(["assets", path, "--seed", str(seed), "--out", str(decisions)]) == 0
    argv = ["pipeline", path, "--seed", str(seed), "--T", T, "--out", str(piped)]
    assert run([*argv, "--keep-intermediates"]) == 0
    for file in ("scene.json", "manifest.tsv", "metadata.sthl", "report.txt"):
        assert (piped / file).read_bytes() == (staged / file).read_bytes(), file
    assert (piped / "solve.json").read_bytes() == solved.read_bytes()
    assert (piped / "decisions.tsv").read_bytes() == decisions.read_bytes()


def test_export_keeps_the_connections_of_a_solve_output(tmp_path, capsys):
    source = tmp_path / "two.sthl"
    source.write_text(
        "region a;\nregion b;\nb.pos <- vec3(20, 0, 0);\nobject c;\nassert inside(c, a);\n",
        encoding="utf-8",
    )
    solved = tmp_path / "solve.json"
    assert run(["solve", str(source), "--T", "0", "--out", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    door = {"regionA": "a", "regionB": "b", "category": "door", "dimensions": [1, 2, 0.1]}
    doc["scene"]["connections"] = [door]
    solved.write_text(json.dumps(doc))
    assert run(["export", str(solved), "--out", str(tmp_path / "pkg")]) == 0
    scene = json.loads((tmp_path / "pkg" / "scene.json").read_text())
    assert scene["connections"] == [{**door, "dimensions": [1.0, 2.0, 0.1]}]
    (connection,) = read_package(tmp_path / "pkg").connections
    assert (connection.region_a, connection.region_b) == ("a", "b")
    assert connection.dimensions == (1.0, 2.0, 0.1)


# The `config` of a solve output written when SolverConfig had nine fields.
FORMER_CONFIG = {
    "batch_size": 3,
    "max_iterations": 5,
    "rng_seed": 7,
    "moves_per_proposal": 8,
    "candidate_samples": 64,
    "translation_step": 0.1,
    "rotation_steps": [0.0, 90.0, 180.0, 270.0],
    "relaxation_sweeps": 32,
    "support_tolerance": 0.005,
}


def test_export_reads_a_solve_output_with_the_former_config_keys(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert run(["solve", BEDROOM, "--seed", "7", "--out", str(out)]) == 0
    former = tmp_path / "former.json"
    doc = json.loads(out.read_text())
    doc["config"] = FORMER_CONFIG
    former.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert run(["export", str(out), "--out", str(tmp_path / "new")]) == 0
    assert run(["export", str(former), "--out", str(tmp_path / "old")]) == 0
    for name in ("scene.json", "manifest.tsv", "metadata.sthl", "report.txt"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


DELETE = object()

# Text of the file, or (path, value) set into a real solve output of
# bedroom.sthl (DELETE removes the key); then the message after the file name.
BAD_SOLVE_OUTPUTS = {
    "not-json": ("not json", ":1: invalid JSON: Expecting value"),
    "empty-object": ("{}", ": solve output lacks key 'program'"),
    "list": ("[]", ": malformed solve output: list indices must be integers or slices, not str"),
    "k-zero": ((("config", "batch_size"), 0), ": malformed solve output: batch size k must be >= 1"),
    "T-negative": (
        (("config", "max_iterations"), -1),
        ": malformed solve output: max iterations T must be >= 0",
    ),
    "k-text": ((("config", "batch_size"), "3"), ": malformed solve output: expected int, not '3'"),
    "seed-float": ((("config", "rng_seed"), 1.5), ": malformed solve output: expected int, not 1.5"),
    "no-seed": ((("config", "rng_seed"), DELETE), ": solve output lacks key 'rng_seed'"),
    "best-index": (
        (("report", "bestIndex"), 9),
        ": malformed solve output: bestIndex 9 names no iteration",
    ),
    "unknown-region": (
        (("scene", "objects", 0, "region"), "attic"),
        ": malformed solve output: object 'bed' names unknown region 'attic'",
    ),
    "list-id": (
        (("scene", "objects", 0, "id"), ["bed"]),
        ": malformed solve output: expected str, not ['bed']",
    ),
    "nan-position": (
        (("report", "iterations", 0, "transforms", "bed", "pos", 0), float("nan")),
        ": malformed solve output: expected a finite number, not nan",
    ),
    "short-vertex": (
        (("scene", "regions", 0, "vertices", 0), [0]),
        ": malformed solve output: expected a list of 2 numbers, not [0]",
    ),
    "clockwise-region": (
        (("scene", "regions", 0, "vertices"), [[0, 0], [0, 4], [4, 4], [4, 0]]),
        ": malformed solve output: region 'bedroom' polygon must be counterclockwise "
        "with positive area",
    ),
    # Positive signed area (75), so it is the simplicity check that refuses it.
    "self-intersecting-region": (
        (("scene", "regions", 0, "vertices"), [[0, 0], [10, 0], [10, 10], [0, 10], [5, -5]]),
        ": malformed solve output: region 'bedroom' polygon self-intersects",
    ),
}


@pytest.mark.parametrize("case", list(BAD_SOLVE_OUTPUTS))
def test_malformed_solve_output_is_a_format_error_naming_the_file(tmp_path, capsys, case):
    content, message = BAD_SOLVE_OUTPUTS[case]
    bad = tmp_path / "bad.json"
    if isinstance(content, tuple):
        assert run(["solve", BEDROOM, "--T", "0", "--out", str(bad)]) == 0
        (*keys, last), value = content
        doc = json.loads(bad.read_text())
        node = doc
        for key in keys:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
        content = json.dumps(doc)
    bad.write_text(content)
    capsys.readouterr()
    assert run(["export", str(bad), "--out", str(tmp_path / "pkg")]) == 1
    assert capsys.readouterr().err == f"error: {bad}{message}\n"
    assert not (tmp_path / "pkg").exists()


# The bed's dimensions and transform scale in a real solve output of
# bedroom.sthl, whose engine scale (world extents over native extents of 1)
# overflows to infinity or underflows to zero; then the reader's complaint.
UNREADABLE_EXPORTS = {
    "overflow": ([1e308, 1, 1], [2, 1, 1], "expected a finite number, not inf"),
    "underflow": (
        [1e-300, 1, 1],
        [1e-100, 1, 1],
        "expected 3 positive numbers, not [0.0, 1.0, 1.0]",
    ),
}


@pytest.mark.parametrize("case", list(UNREADABLE_EXPORTS))
def test_export_refuses_a_package_it_cannot_read_back(tmp_path, capsys, case):
    dimensions, scale, message = UNREADABLE_EXPORTS[case]
    solved = tmp_path / "solve.json"
    assert run(["solve", BEDROOM, "--T", "0", "--out", str(solved)]) == 0
    doc = json.loads(solved.read_text())
    (bed,) = (o for o in doc["scene"]["objects"] if o["id"] == "bed")
    bed["dimensions"] = dimensions
    for rec in doc["report"]["iterations"]:
        rec["transforms"]["bed"]["scale"] = scale
    solved.write_text(json.dumps(doc))
    capsys.readouterr()
    pkg = tmp_path / "pkg"
    assert run(["export", str(solved), "--out", str(pkg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pkg / 'scene.json'}: malformed object 'bed': {message}\n"
    )
    assert not pkg.exists()


def _paths(node, prefix=()):
    """Every key path into a JSON document, up to three items per list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:3])
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def solve_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("mutated") / "solve.json"
    assert run(["solve", BEDROOM, "--T", "1", "--out", str(out)]) == 0
    return out


MUTATIONS = [
    DELETE, None, True, 0, -1, 1.5, 1e308, float("nan"), float("inf"), "", "x", "bed",
    "bedroom", [], [1, 2], [0, 0, 0], [-1, 1, 1], [float("nan"), 0, 0], [[0, 0]],
    [[0, 0], [1, 0], [0, 1]], [[0, 0], [0, 0], [0, 0]], {}, {"a": 1},
]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_solve_output_exports_or_is_a_domain_error(solve_output, data):
    doc = json.loads(solve_output.read_text())
    *keys, last = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    value = data.draw(st.sampled_from(MUTATIONS))
    node = doc
    for key in keys:
        node = node[key]
    if value is not DELETE:
        node[last] = value
    elif isinstance(node, dict):
        del node[last]
    mutated = solve_output.with_name("mutated.json")
    mutated.write_text(json.dumps(doc))
    pkg = solve_output.with_name("pkg")
    shutil.rmtree(pkg, ignore_errors=True)
    code = run(["export", str(mutated), "--out", str(pkg)])
    assert code in (0, 1)
    if code == 0:
        read_package(pkg)  # what export writes, the reader reads back


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    out = tmp_path_factory.mktemp("mutated-package") / "pkg"
    assert run(["pipeline", BEDROOM, "--T", "1", "--out", str(out)]) == 0
    return out


MANIFEST_MUTATIONS = ["1,1", "nan,1,1", "0,1,1", "1,1,1,1", "x"]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_package_reads_back_or_is_a_domain_error(package, data):
    doc = json.loads((package / "scene.json").read_text())
    rows = [line.split("\t") for line in (package / "manifest.tsv").read_text().splitlines()]
    if data.draw(st.booleans()):
        *keys, last = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
        value = data.draw(st.sampled_from(MUTATIONS))
        node = doc
        for key in keys:
            node = node[key]
        if value is not DELETE:
            node[last] = value
        elif isinstance(node, dict):
            del node[last]
    else:
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.integers(0, 5))] = data.draw(st.sampled_from(MANIFEST_MUTATIONS))
    mutated = package.with_name("mutated")
    shutil.rmtree(mutated, ignore_errors=True)
    shutil.copytree(package, mutated)
    (mutated / "scene.json").write_text(json.dumps(doc))
    (mutated / "manifest.tsv").write_text("".join("\t".join(row) + "\n" for row in rows))
    try:
        pkg = read_package(mutated)
        for region in sorted({o.region for o in pkg.objects}):
            resolve_region(pkg, region)
        for obj in pkg.objects:
            pkg.verdicts_for(obj.id)
    except SthlError:
        pass


def test_eval_reports_resemblance(capsys):
    assert run(["eval", "--gen", BEDROOM, "--gt", BEDROOM, "--tau", "0.7"]) == 0
    err = capsys.readouterr().err
    assert "overall: precision=1.0000" in err


def test_eval_of_two_empty_constraint_sets_scores_one(tmp_path, capsys):
    program = tmp_path / "empty.sthl"
    program.write_text("region r;\nobject a;\n", encoding="utf-8")
    assert run(["eval", "--gen", str(program), "--gt", str(program)]) == 0
    err = capsys.readouterr().err
    assert "layout: precision=1.0000 recall=1.0000 f1=1.0000 (tp=0 fp=0 fn=0)" in err
    assert "overall: precision=1.0000 recall=1.0000 f1=1.0000 (tp=1 fp=0 fn=0)" in err


def test_pipeline_end_to_end(tmp_path, capsys):
    out = tmp_path / "pkg"
    assert run(["pipeline", LIVINGROOM, "--seed", "9", "--out", str(out)]) == 0
    for name in ("scene.json", "manifest.tsv", "metadata.sthl", "report.txt"):
        assert (out / name).exists()


def test_pipeline_keep_intermediates(tmp_path):
    out = tmp_path / "pkg"
    assert run(
        ["pipeline", LIVINGROOM, "--seed", "9", "--out", str(out), "--keep-intermediates"]
    ) == 0
    assert (out / "constraints.txt").exists()
    assert (out / "decisions.tsv").exists()
    assert (out / "solve.json").exists()
    assert (out / "layout_iter0.json").exists()


def test_pipeline_deterministic_bytes(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    assert run(["pipeline", LIVINGROOM, "--seed", "4", "--out", str(one)]) == 0
    assert run(["pipeline", LIVINGROOM, "--seed", "4", "--out", str(two)]) == 0
    assert (one / "scene.json").read_bytes() == (two / "scene.json").read_bytes()
    assert (one / "report.txt").read_bytes() == (two / "report.txt").read_bytes()


def test_pipeline_without_a_file_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", "--seed", "4"])
    assert exc.value.code == 2
    assert "required: file" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STHL_SEED", "31")
    import importlib

    import sthl.cli as cli_module

    importlib.reload(cli_module)
    out = tmp_path / "pkg"
    assert cli_module.run(["pipeline", LIVINGROOM, "--out", str(out)]) == 0
    doc = json.loads((out / "scene.json").read_text())
    assert doc["solver"]["seed"] == 31
    monkeypatch.delenv("STHL_SEED")
    importlib.reload(cli_module)


# `run` keeps one argument parser per process. The tests below pin what
# that must not change: STHL_SEED is read on every call, a failed call
# leaves nothing behind, and dispatch goes through the module's
# `_cmd_<command>` names at call time (the benchmark's tracer wraps them).


def _pipeline_seed(out: Path, *options: str) -> int:
    assert run(["pipeline", LIVINGROOM, "--T", "0", "--out", str(out), *options]) == 0
    return json.loads((out / "scene.json").read_text())["solver"]["seed"]


def test_seed_env_is_read_on_every_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STHL_SEED", "31")
    assert _pipeline_seed(tmp_path / "first") == 31
    monkeypatch.setenv("STHL_SEED", "5")
    assert _pipeline_seed(tmp_path / "second") == 5


def test_explicit_seed_beats_the_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STHL_SEED", "31")
    assert _pipeline_seed(tmp_path / "pkg", "--seed", "4") == 4


def test_non_integer_seed_env_means_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STHL_SEED", "seven")
    assert _pipeline_seed(tmp_path / "pkg") == 0


def test_usage_error_leaves_the_next_run_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STHL_SEED", raising=False)
    alone = tmp_path / "alone"
    done = subprocess.run(
        [sys.executable, "-m", "sthl.cli", "pipeline", LIVINGROOM, "--out", str(alone)],
        capture_output=True,
        env=child_env(),
    )
    assert done.returncode == 0, done.stderr
    with pytest.raises(SystemExit) as exc:
        run(["pipeline", LIVINGROOM, "--seed", "9", "--k", "0", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    after = tmp_path / "after"
    assert run(["pipeline", LIVINGROOM, "--out", str(after)]) == 0
    names = sorted(p.name for p in alone.iterdir())
    assert names == sorted(p.name for p in after.iterdir())
    for name in names:
        assert (after / name).read_bytes() == (alone / name).read_bytes(), name


def test_a_command_replaced_after_a_run_is_the_one_run(monkeypatch, capsys):
    import sthl.cli as cli_module

    assert run(["check", BEDROOM]) == 0
    seen = []
    monkeypatch.setattr(cli_module, "_cmd_check", lambda args: seen.append(args.file) or 0)
    assert run(["check", BEDROOM]) == 0
    assert seen == [BEDROOM]


def test_pipeline_with_database(tmp_path):
    db = tmp_path / "index.tsv"
    db.write_text(
        "a1\tmodels/bed.glb\tthumbs/bed.png\ta simple wooden bed\n"
        "a2\tmodels/stand.glb\tthumbs/stand.png\tan oak nightstand\n"
        "a3\tmodels/lamp.glb\tthumbs/lamp.png\ta brass reading lamp\n"
    )
    out = tmp_path / "pkg"
    assert run(
        ["pipeline", BEDROOM, "--seed", "3", "--out", str(out),
         "--db", str(db), "--tau", "0.0"]
    ) == 0
    manifest = (out / "manifest.tsv").read_text()
    assert "retrieved" in manifest
    assert "models/" in manifest


def test_read_package_bad_region_is_format_error(tmp_path):
    out = tmp_path / "pkg"
    assert run(["pipeline", BEDROOM, "--seed", "3", "--out", str(out)]) == 0
    import json as json_mod

    from sthl.errors import FormatError
    from sthl.export import read_package

    scene_path = out / "scene.json"
    doc = json_mod.loads(scene_path.read_text())
    doc["regions"][0]["vertices"] = [[0, 0], [1, 0]]
    scene_path.write_text(json_mod.dumps(doc, indent=2, sort_keys=True))
    with pytest.raises(FormatError, match="region"):
        read_package(out)


@pytest.mark.parametrize(
    "source, where, message",
    [
        ("region room;\nobject a;\na.scale <- vec3(0, 1, 1);\n", ":3:1:", "scale"),
        ("region room;\nobject a;\n  a.scale <- vec3(1, 1, -2);\n", ":3:3:", "scale"),
        ("region r;\nr.rot <- rot(10, 0, 0);\nobject a;\n", ":2:1:", "yaw"),
    ],
)
@pytest.mark.parametrize("command", ["check", "pipeline"])
def test_unbuildable_values_are_located_errors(tmp_path, capsys, command, source, where, message):
    path = tmp_path / "bad.sthl"
    path.write_text(source)
    argv = [command, str(path)] + (["--out", str(tmp_path / "pkg")] if command == "pipeline" else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "pkg").exists()


NON_FINITE_VALUES = [
    ("region r;\nr.rot <- rot(0, 0, 1 / 0);\nobject a;\n", ":2:1:", "r.rot", "(0, 0, inf)"),
    ("region r;\nr.pos <- vec3(0, 0 - 1 / 0, 0);\nobject a;\n", ":2:1:", "r.pos", "(0, -inf, 0)"),
    ("region r;\nr.scale <- vec3(0 / 0, 3, 4);\nobject a;\n", ":2:1:", "r.scale", "(nan, 3, 4)"),
    ("region r;\nobject a;\na.scale <- vec3(0 / 0, 1, 1);\n", ":3:1:", "a.scale", "(nan, 1, 1)"),
    ("region r;\nobject a;\n a.pos <- vec3(1 / 0, 0.5, 0);\n", ":3:2:", "a.pos", "(inf, 0.5, 0)"),
    ("region r;\nobject a;\na.rot <- rot(0, 0, 1 / 0);\n", ":3:1:", "a.rot", "(0, 0, inf)"),
]


@pytest.mark.parametrize("source, where, prop, got", NON_FINITE_VALUES)
@pytest.mark.parametrize("command", ["check", "pipeline"])
def test_non_finite_placement_values_are_located_errors(tmp_path, capsys, command, source, where, prop, got):
    path = tmp_path / "bad.sthl"
    path.write_text(source)
    argv = [command, str(path)] + (["--out", str(tmp_path / "pkg")] if command == "pipeline" else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}{where} {prop} components must be finite, got {got}\n"
    assert not (tmp_path / "pkg").exists()


BIG = "1" + "0" * 320  # beyond the float range


@pytest.mark.parametrize(
    "argv",
    [["fmt"], ["parse", "--json-ast"], ["check"], ["pipeline", "--out", "PKG"], ["solve", "--out", "OUT"]],
    ids=lambda argv: argv[0],
)
def test_out_of_range_number_literal_is_a_located_error(tmp_path, capsys, argv):
    path = tmp_path / "big.sthl"
    path.write_text(f"region r;\nr.scale <- vec3({BIG}, 3, 4);\n", encoding="utf-8")
    argv = [a.replace("PKG", str(tmp_path / "pkg")).replace("OUT", str(tmp_path / "s.json")) for a in argv]
    assert run(argv[:1] + argv[1:] + [str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}:2:17: number literal out of range (beyond about 1.8e308)\n"
    )
    assert not (tmp_path / "pkg").exists() and not (tmp_path / "s.json").exists()


def test_repairing_a_far_placed_object_is_total(tmp_path, capsys):
    # Squaring a move of 1e300 m overflows; such a move counts as infinitely long.
    path = tmp_path / "far.sthl"
    path.write_text("region r;\nobject a;\na.pos <- vec3(1" + "0" * 300 + ", 0, 0);\n")
    assert run(["pipeline", str(path), "--T", "2", "--out", str(tmp_path / "pkg")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_export_of_an_edited_solve_output_reports_the_edited_layout(tmp_path, capsys):
    # Lift the lamp of the living room off the floor in the best iteration:
    # its support constraint flips, and the exported report must show the
    # verdict of the edited layout, not the `unsatisfied` list of the file.
    out = tmp_path / "solve.json"
    assert run(["solve", LIVINGROOM, "--seed", "7", "--T", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    record = next(r for r in doc["report"]["iterations"] if r["index"] == doc["report"]["bestIndex"])
    assert run(["export", str(out), "--out", str(tmp_path / "before")]) == 0
    supported = "hidden-gravity satisfied supported(table_lamp)"
    assert supported in (tmp_path / "before" / "report.txt").read_text()

    record["transforms"]["table_lamp"]["pos"][1] += 1.0
    out.write_text(json.dumps(doc))
    assert run(["export", str(out), "--out", str(tmp_path / "after")]) == 0
    report = (tmp_path / "after" / "report.txt").read_text()
    assert "hidden-gravity violated supported(table_lamp)" in report
    assert supported not in report


def test_type_error_in_an_edited_solve_output_names_the_file(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert run(["solve", BEDROOM, "--T", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["program"] += "assert bed.color > 1;\n"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["export", str(out), "--out", str(tmp_path / "pkg")]) == 1
    assert capsys.readouterr().err == (
        f"error: {out}:14:18: ordering '>' requires numbers, found Color and Number\n"
    )


def _edited_solve_output(tmp_path, source: str, edit) -> Path:
    program = tmp_path / "edited.sthl"
    program.write_text(source)
    out = tmp_path / "solve.json"
    assert run(["solve", str(program), "--T", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["program"] = edit(doc["program"])
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize(
    "source, edit, message",
    [
        # A region value that reads a placement: no constraint could be
        # evaluated on it, and the error used to name no file.
        (
            "region r;\nr.scale <- vec3(4, 3, 2);\nobject a;\nassert r.scale.x = 4;\n",
            lambda text: text.replace("r.scale <- vec3(4, 3, 2);", "r.scale <- r.scale;"),
            "2:1: assignment must not depend on object placement: identifier 'r' missing from layout",
        ),
        # A scale no constraint reads: this used to be packaged.
        (
            "region r;\nobject a;\nassert a.pos.x > 1;\n",
            lambda text: text + "a.scale <- vec3(0, 1, 1);\n",
            "4:1: a.scale components must be positive, got (0, 1, 1)",
        ),
    ],
    ids=["placement-read", "zero-scale"],
)
def test_export_builds_the_program_it_reads(tmp_path, capsys, source, edit, message):
    out = _edited_solve_output(tmp_path, source, edit)
    capsys.readouterr()
    assert run(["export", str(out), "--out", str(tmp_path / "pkg")]) == 1
    assert capsys.readouterr().err == f"error: {out}:{message}\n"
    assert not (tmp_path / "pkg").exists()


CORPUS = Path(__file__).parent / "fixtures" / "corpus"
PROGRAMS = sorted(CORPUS.glob("*.sthl")) + sorted(FIXTURES.glob("*.sthl"))


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_check_and_pipeline_are_total(tmp_path, capsys, path):
    assert run(["check", str(path)]) in (0, 1)
    assert run(["pipeline", str(path), "--T", "1", "--out", str(tmp_path / "pkg")]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_program_without_region(tmp_path, capsys):
    path = tmp_path / "bare.sthl"
    path.write_text("object lamp;\nobject desk;\n")
    assert run(["check", str(path)]) == 0
    assert run(["assets", str(path)]) == 0
    assert run(["eval", "--gen", str(path), "--gt", str(path)]) == 0
    capsys.readouterr()
    assert run(["pipeline", str(path), "--out", str(tmp_path / "pkg")]) == 1
    assert capsys.readouterr().err == "error: object 'lamp' is in no region; the solver needs its region\n"
    # The stages before the solve still leave their intermediates.
    kept = tmp_path / "kept"
    assert run(["pipeline", str(path), "--out", str(kept), "--keep-intermediates"]) == 1
    assert sorted(p.name for p in kept.iterdir()) == ["constraints.txt", "decisions.tsv"]


def test_solve_reports_rand_tautology_satisfied(tmp_path, capsys):
    path = tmp_path / "rand.sthl"
    path.write_text(
        "region room; object a; object b; Number w;\n"
        "a.scale <- vec3(rand(1, 2), 1, 1);\n"
        "w <- rand(1, 2);\n"
        "b.scale <- vec3(w, 1, 1);\n"
        "assert b.scale.x = w;\n"
    )
    report = tmp_path / "report.txt"
    argv = ["solve", str(path), "--seed", "7", "--out", str(tmp_path / "solve.json")]
    assert run(argv + ["--report", str(report)]) == 0
    assert "0 explicit satisfied b.scale.x = w" in report.read_text().splitlines()


def test_non_decimal_digit_is_a_located_error(tmp_path, capsys):
    path = tmp_path / "digit.sthl"
    path.write_text("Number w;\nw <- ²;\n", encoding="utf-8")
    assert run(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:2:6: unexpected character '²'\n"


def _nested(depth: int) -> str:
    """A program with one statement of each nesting shape, `depth` deep."""
    return (
        "region r;\nr.scale <- vec3(6, 3, 6);\nobject a;\nNumber w;\nNumber v;\n"
        "w <- " + "(1 + " * depth + "1" + ")" * depth + ";\n"
        "v <- " + "rand(0, " * depth + "1" + ")" * depth + ";\n"
        "assert " + "(" * depth + "a.pos.x > -10" + ")" * depth + ";\n"
        "assert " + "!" * depth + "a.pos.x > -10;\n"
        "assert " + "!(" * (depth // 2) + "a.pos.z > -10 && v >= 0" + ")" * (depth // 2) + ";\n"
    )


def test_nesting_limit_holds_through_every_stage(tmp_path, capsys):
    path = tmp_path / "deep.sthl"
    path.write_text(_nested(MAX_NESTING), encoding="utf-8")
    assert run(["pipeline", str(path), "--T", "1", "--out", str(tmp_path / "pkg")]) == 0
    assert run(["eval", "--gen", str(path), "--gt", str(path)]) == 0
    assert (tmp_path / "pkg" / "metadata.sthl").exists()
    capsys.readouterr()

    path.write_text(_nested(MAX_NESTING + 1), encoding="utf-8")
    assert run(["check", str(path)]) == 1
    column = len("w <- ") + MAX_NESTING * len("(1 + ") + 1
    assert capsys.readouterr().err == (
        f"error: {path}:6:{column}: nesting deeper than {MAX_NESTING} levels\n"
    )


NON_FINITE_FLAGS = [
    ("assets", BEDROOM, "--tau"),
    ("assets", BEDROOM, "--lambda-v"),
    ("assets", BEDROOM, "--lambda-t"),
    ("export", "solve.json", "--tau"),
    ("eval", "--gen", BEDROOM, "--gt", BEDROOM, "--tau"),
    ("pipeline", BEDROOM, "--tau"),
    ("pipeline", BEDROOM, "--eta"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-NaN", "1e999"])
@pytest.mark.parametrize("argv", NON_FINITE_FLAGS, ids=lambda a: f"{a[0]}{a[-1]}")
def test_non_finite_float_flags_are_usage_errors(tmp_path, capsys, argv, value):
    out = ["--out", str(tmp_path / "pkg")] if argv[0] in ("export", "pipeline") else []
    with pytest.raises(SystemExit) as exc:
        run([*argv[:-1], f"{argv[-1]}={value}", *out])
    assert exc.value.code == 2
    assert f"argument {argv[-1]}: must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "pkg").exists()


NOT_UTF8 = b"region room;\n\xff\xfe\n"  # the first bad byte is at offset 13

# Every input a command reads; `{bad}` is the unreadable one.
INPUTS = [
    ("parse", "{bad}"),
    ("fmt", "{bad}"),
    ("check", "{bad}"),
    ("solve", "{bad}", "--out", "{tmp}/solve.json"),
    ("assets", "{bad}"),
    ("assets", "{program}", "--db", "{bad}"),
    ("export", "{bad}", "--out", "{tmp}/pkg"),
    ("export", "{solve}", "--db", "{bad}", "--out", "{tmp}/pkg"),
    ("eval", "--gen", "{bad}", "--gt", "{program}"),
    ("eval", "--gen", "{program}", "--gt", "{bad}"),
    ("eval", "--gen", "{program}", "--gt", "{program}", "--embeddings", "{bad}"),
    ("pipeline", "{bad}", "--out", "{tmp}/pkg"),
    ("pipeline", "{program}", "--db", "{bad}", "--out", "{tmp}/pkg"),
]


def _input_id(argv: tuple[str, ...]) -> str:
    flag = argv[argv.index("{bad}") - 1]
    return f"{argv[0]}{flag if flag.startswith('--') else '-file'}"


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
@pytest.mark.parametrize("argv", INPUTS, ids=_input_id)
def test_unreadable_inputs_are_errors_naming_the_file(tmp_path, capsys, argv, kind):
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(NOT_UTF8)
    solve = tmp_path / "solve.json"
    if "{solve}" in argv:
        assert run(["solve", BEDROOM, "--T", "0", "--out", str(solve)]) == 0
    names = {"bad": bad, "program": BEDROOM, "solve": solve, "tmp": tmp_path}
    capsys.readouterr()
    assert run([a.format(**names) for a in argv]) == 1
    err = capsys.readouterr().err
    if kind == "directory":
        assert err == f"error: {bad}: Is a directory\n"
    else:
        assert err == f"error: {bad}: not UTF-8 text: byte 0xff at offset 13: invalid start byte\n"
    assert not (tmp_path / "pkg").exists()


@pytest.mark.parametrize("component", ["nan", "inf", "-Infinity"])
def test_non_finite_embedding_is_a_located_error(tmp_path, capsys, component):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text(f"lamp\t0,1,0\nchair\t{component},1,0\n", encoding="utf-8")
    argv = ["eval", "--gen", BEDROOM, "--gt", BEDROOM, "--embeddings", str(vectors)]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {vectors}:2: vector components must be finite\n")

"""How many times each command parses its program, counted through the
three names the benchmark's tracer wraps (`cli.parse`, `export.parse` and
`metrics.parse`).

The tracer times `dsl.parse` only through these names, so a front end
that parsed some other way would read as a faster parse layer rather than
as a failure; these counts pin both the number of parses and the route.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from sthl import cli, export, metrics
from sthl.cli import run
from sthl.dsl import nodes, parse, print_program
from sthl.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

BEDROOM = str(ROOT / "fixtures" / "bedroom.sthl")


@pytest.fixture
def canonical(tmp_path) -> Path:
    """The bedroom fixture as `sthl fmt` prints it, which prints back to itself."""
    path = tmp_path / "canonical.sthl"
    path.write_text(print_program(parse(Path(BEDROOM).read_text(encoding="utf-8"))), encoding="utf-8")
    return path


@pytest.fixture
def parses(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for module in (cli, export, metrics):
        def counted(*args, _parse=module.parse, _name=module.__name__, **kwargs):
            counts[_name] += 1
            return _parse(*args, **kwargs)

        monkeypatch.setattr(module, "parse", counted)
    return counts


def test_front_end_commands_parse_once(tmp_path, capsys, parses):
    index = tmp_path / "index.tsv"
    index.write_text(workloads.asset_index(3, size=40), encoding="utf-8")
    for argv in (
        ["fmt", BEDROOM],
        ["check", BEDROOM],
        ["assets", BEDROOM, "--db", str(index), "--out", str(tmp_path / "decisions.tsv")],
    ):
        parses.clear()
        assert run(argv) == 0
        assert parses == {"sthl.cli": 1}, argv[0]


def test_eval_parses_both_programs(capsys, parses):
    assert run(["eval", "--gen", BEDROOM, "--gt", BEDROOM]) == 0
    assert parses == {"sthl.cli": 2}


def test_pipeline_parses_once_and_guards_the_package_with_one_more(tmp_path, capsys, parses):
    # bedroom.sthl does not print back to itself, so the guard parses it.
    out = tmp_path / "pkg"
    assert run(["pipeline", BEDROOM, "--T", "0", "--out", str(out)]) == 0
    assert parses == {"sthl.cli": 1, "sthl.export": 1}

    parses.clear()
    pkg = export.read_package(out)
    assert parses == {"sthl.export": 1}

    parses.clear()
    export.resolve_region(pkg, "bedroom", SolverConfig(max_iterations=0))
    assert parses == {}


def test_pipeline_of_a_canonical_program_parses_once(tmp_path, capsys, parses, canonical):
    out = tmp_path / "pkg"
    assert run(["pipeline", str(canonical), "--T", "0", "--out", str(out)]) == 0
    assert parses == {"sthl.cli": 1}
    assert (out / export.METADATA_FILE).read_text(encoding="utf-8") == canonical.read_text(
        encoding="utf-8"
    )


def test_export_of_a_solve_output_parses_once(tmp_path, capsys, parses):
    solve_out = tmp_path / "solve.json"
    assert run(["solve", BEDROOM, "--T", "0", "--out", str(solve_out)]) == 0
    parses.clear()
    assert run(["export", str(solve_out), "--out", str(tmp_path / "pkg")]) == 0
    assert parses == {"sthl.export": 1}


def test_entity_source_is_parsed_again_by_the_guard(tmp_path, capsys, parses, canonical):
    source = tmp_path / "entity.sthl"
    source.write_text(
        canonical.read_text(encoding="utf-8").replace("object ", "entity ", 1), encoding="utf-8"
    )
    out = tmp_path / "pkg"
    assert run(["pipeline", str(source), "--T", "0", "--out", str(out)]) == 0
    assert parses == {"sthl.cli": 1, "sthl.export": 1}
    assert (out / export.METADATA_FILE).read_text(encoding="utf-8") == canonical.read_text(
        encoding="utf-8"
    )


def _spans(program) -> list:
    """Every node's type and span, statements first, then their children."""
    out, stack = [], list(reversed(program.statements))
    while stack:
        node = stack.pop()
        out.append((type(node).__name__, node.span))
        for name in reversed(nodes.CHILD_FIELDS.get(type(node), ())):
            stack.append(getattr(node, name))
    return out


@pytest.mark.parametrize("source", ["bedroom", "canonical", "entity"])
def test_package_program_is_the_parse_of_its_metadata(tmp_path, capsys, canonical, source):
    path = {
        "bedroom": Path(BEDROOM),
        "canonical": canonical,
        "entity": tmp_path / "entity.sthl",
    }[source]
    if source == "entity":
        path.write_text("entity a;\nregion r;\n", encoding="utf-8")
    args = cli.build_arg_parser().parse_args(
        ["pipeline", str(path), "--T", "0", "--out", str(tmp_path / "pkg")]
    )
    program = cli.pipeline(args).program()
    expected = parse((tmp_path / "pkg" / export.METADATA_FILE).read_text(encoding="utf-8"))
    assert program.statements == expected.statements
    assert _spans(program) == _spans(expected)
    assert (program.notes, program.filename) == (expected.notes, expected.filename) == ((), "<sthl>")

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
from sthl.solver import SolverConfig

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

BEDROOM = str(ROOT / "fixtures" / "bedroom.sthl")


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
    out = tmp_path / "pkg"
    assert run(["pipeline", BEDROOM, "--T", "0", "--out", str(out)]) == 0
    assert parses == {"sthl.cli": 1, "sthl.export": 1}

    parses.clear()
    pkg = export.read_package(out)
    assert parses == {"sthl.export": 1}

    parses.clear()
    export.resolve_region(pkg, "bedroom", SolverConfig(max_iterations=0))
    assert parses == {}

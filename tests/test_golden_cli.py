"""Golden outputs: `sthl assets --db` decisions and `sthl eval` scores for a
seeded 60-object program, byte for byte.

The expected files under `tests/golden/` were written by the per-pair
scoring loops that the pruned retrieval and the matrix-form resemblance
replaced; any drift in a retrieval decision, a score's repr or an eval
count shows here.

Regenerate (only when a change is meant to alter these outputs):

    PYTHONPATH=src:tests python -c "import test_golden_cli as g; g.regenerate()"
"""

from __future__ import annotations

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sthl.cli import run

GOLDEN = Path(__file__).parent / "golden"
PROGRAM = GOLDEN / "authoring60.sthl"  # 60 objects over 3 regions
OTHER = GOLDEN / "authoring50.sthl"  # a different seeded program
INDEX_SIZE = 2000
# Golden file -> `sthl assets` options: the stock weights and threshold, and
# other weights with a threshold high enough that some queries generate.
ASSETS_RUNS = {
    "assets.tsv": ("--seed", "7"),
    "assets_weighted.tsv": ("--seed", "7", "--lambda-v", "7", "--lambda-t", "3", "--tau", "0.985"),
}

CATEGORIES = (
    "chair", "table", "lamp", "sofa", "shelf", "desk", "bed", "cabinet", "rug", "plant",
    "stool", "bench", "dresser", "mirror", "ottoman", "wardrobe", "armchair", "bookcase",
    "nightstand", "crate",
)
COLORS = ("red", "blue", "white", "black", "green", "walnut", "grey", "beige", "teal", "ivory")
MATERIALS = ("oak", "pine", "steel", "glass", "velvet", "leather", "linen", "marble", "brass")
FEATURES = ("modern", "rustic", "tall", "low", "round", "square", "vintage", "minimal", "matte")


def write_index(path: Path, seed: int = 3, size: int = INDEX_SIZE) -> None:
    """A seeded `id<TAB>model<TAB>thumbnail<TAB>description` index."""
    rng = random.Random(seed)
    rows = []
    for i in range(size):
        description = (
            f"a 3D model of a {rng.choice(COLORS)} {rng.choice(CATEGORIES)} made with "
            f"{rng.choice(MATERIALS)} that is {' '.join(rng.sample(FEATURES, 2))}"
        )
        rows.append(f"a{i:04d}\tmodels/a{i:04d}.glb\tthumbs/a{i:04d}.png\t{description}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assets_output(workdir: Path, options: tuple[str, ...]) -> str:
    index = workdir / "index.tsv"
    write_index(index)
    code, out, err = _run("assets", PROGRAM, "--db", index, *options)
    assert code == 0, err
    return out


def eval_output() -> str:
    code, _, err = _run("eval", "--gen", OTHER, "--gt", PROGRAM)
    assert code == 0, err
    return err


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, options in ASSETS_RUNS.items():
            (GOLDEN / name).write_text(assets_output(Path(tmp), options), encoding="utf-8")
    (GOLDEN / "eval.txt").write_text(eval_output(), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ASSETS_RUNS))
def test_assets_decisions_match_golden(tmp_path, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert assets_output(tmp_path, ASSETS_RUNS[name]) == expected


def test_eval_scores_match_golden():
    assert eval_output() == (GOLDEN / "eval.txt").read_text(encoding="utf-8")

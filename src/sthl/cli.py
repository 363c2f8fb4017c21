"""Command-line entry point: parse, fmt, check, solve, assets, export,
eval, and the full pipeline, which runs the stages of check, assets, solve
and export in one process.

Exit codes: 0 success, 1 domain error (parse/type/placement/format), 2
usage error. Diagnostics go to stderr; artifacts go to files. Every
document a command writes and a later command reads back (solve output,
layout snapshots, scene packages) is encoded and checked by `sthl.export`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from sthl import assets as assets_mod
from sthl import constraints as constraints_mod
from sthl import export as export_mod
from sthl.build import build_scene
from sthl.dsl import Program, TypedProgram, parse, print_program, typecheck
from sthl.dsl.nodes import (
    AllowCollide,
    AllowOutside,
    Assert,
    Assign,
    Declare,
)
from sthl.dsl.printer import print_assertion, print_expr
from sthl.errors import SthlError, read_text
from sthl.scene import SceneLayout, WALL_THICKNESS
from sthl.solver import SolveReport, SolverConfig, render_report, solve

DEFAULT_SOLVE_OUT = "solve.json"
DEFAULT_WEIGHTS = (assets_mod.DEFAULT_VISUAL_WEIGHT, assets_mod.DEFAULT_SEMANTIC_WEIGHT)


# ---------------------------------------------------------------------------
# AST JSON (for `parse --json-ast`)


def ast_document(program: Program) -> list[dict]:
    out = []
    for stmt in program.statements:
        if isinstance(stmt, Declare):
            entry = {"stmt": "declare", "kind": stmt.kind, "name": stmt.name}
            if stmt.var_type is not None:
                entry["type"] = stmt.var_type.value
        elif isinstance(stmt, Assert):
            entry = {"stmt": "assert", "condition": print_assertion(stmt.condition)}
        elif isinstance(stmt, AllowCollide):
            entry = {"stmt": "allowCollide", "first": stmt.first, "second": stmt.second}
        elif isinstance(stmt, AllowOutside):
            entry = {"stmt": "allowOutside", "name": stmt.name}
        else:
            assert isinstance(stmt, Assign)
            entry = {
                "stmt": "assign",
                "target": stmt.target,
                "prop": stmt.prop,
                "value": print_expr(stmt.value),
            }
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Shared stages: each command runs the ones it needs, and `pipeline` runs
# the stages of `check`, `assets`, `solve` and `export` in memory.


def _load(
    path: str | Path, seed: int = 0, wall_thickness: float = WALL_THICKNESS
) -> tuple[Program, TypedProgram, SceneLayout]:
    """The front end every program command shares: parse, type-check, build."""
    program = parse(read_text(path), filename=str(path))
    typed = typecheck(program)
    built = build_scene(typed, seed=seed, wall_thickness=wall_thickness)
    return program, typed, built


def _compile(
    args: argparse.Namespace, eta: float = WALL_THICKNESS
) -> tuple[Program, SceneLayout, constraints_mod.ConstraintSet]:
    """The front end, then the program's constraints for `args.seed`."""
    program, typed, built = _load(args.file, args.seed, eta)
    return program, built, constraints_mod.compile_constraints(typed, seed=args.seed)


def _solve(
    args: argparse.Namespace, built: SceneLayout, cs: constraints_mod.ConstraintSet
) -> SolveReport:
    cfg = SolverConfig(batch_size=args.k, max_iterations=args.T, rng_seed=args.seed)
    return solve(built.objects, built.regions, cs, cfg)


def _asset_decisions(
    layout: SceneLayout, db_path: str | None, tau: float, weights=DEFAULT_WEIGHTS
) -> dict[str, assets_mod.AssetDecision]:
    database = [] if db_path is None else assets_mod.AssetDatabase.load(db_path).entries
    entities = [
        assets_mod.AssetEntity("object", obj.category, obj.color, obj.material, obj.features)
        for obj in layout.objects
    ]
    decisions = assets_mod.decide_all(
        entities, database, tau=tau, weights=weights,
        provider=assets_mod.HashProvider(), generator=assets_mod.StubGenerator(),
    )
    return {obj.id: decision for obj, decision in zip(layout.objects, decisions)}


def _decisions_tsv(decisions: dict[str, assets_mod.AssetDecision]) -> str:
    """`decisions.tsv`: object id, query, verdict, score and model uri."""
    rows = [
        "\t".join((obj_id, d.query.text, d.verdict, repr(d.best_score), d.model.uri))
        for obj_id, d in decisions.items()
    ]
    return "\n".join(rows) + ("\n" if rows else "")


def _export(
    out_dir: str | Path, program: Program, report: SolveReport,
    decisions: dict[str, assets_mod.AssetDecision],
) -> export_mod.ScenePackage:
    pkg = export_mod.assemble(report, decisions, program)
    export_mod.write_package(pkg, out_dir)
    return pkg


def pipeline(args: argparse.Namespace) -> export_mod.ScenePackage:
    """Run the stages of `check`, `assets`, `solve` and `export` on
    `args.file` and write the package to `args.out`.

    With `--keep-intermediates`, each stage's artifact lands in the output
    directory as it is made: constraints.txt, decisions.tsv (as `sthl
    assets --out` writes it), solve.json (as `sthl solve --out` writes
    it) and per-iteration layout snapshots.
    """
    program, built, cs = _compile(args, args.eta)
    out_dir = Path(args.out)
    keep = args.keep_intermediates
    if keep:
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = [
            f"{c.id} {c.provenance} {constraints_mod.print_compiled_assertion(c.assertion)}"
            for c in cs.constraints
        ]
        (out_dir / "constraints.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    decisions = _asset_decisions(built, args.db, args.tau)
    if keep:
        (out_dir / "decisions.tsv").write_text(_decisions_tsv(decisions), encoding="utf-8")

    report = _solve(args, built, cs)
    if keep:
        export_mod.write_json(
            out_dir / DEFAULT_SOLVE_OUT, export_mod.solve_output_document(program, report)
        )
        for rec in report.iterations:
            export_mod.write_json(
                out_dir / f"layout_iter{rec.index}.json", export_mod.layout_transforms(rec.layout)
            )
    return _export(out_dir, program, report, decisions)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_parse(args: argparse.Namespace) -> int:
    program = parse(read_text(args.file), filename=args.file)
    for note in program.notes:
        print(note, file=sys.stderr)
    if args.json_ast:
        print(json.dumps(ast_document(program), indent=2))
    else:
        print(f"{args.file}: {len(program.statements)} statements", file=sys.stderr)
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    sys.stdout.write(print_program(parse(read_text(args.file), filename=args.file)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    _, built, cs = _compile(args)
    explicit = sum(1 for c in cs.constraints if c.provenance == "explicit")
    hidden = len(cs.constraints) - explicit
    print(
        f"{args.file}: {len(built.objects)} objects, {len(built.regions)} regions, "
        f"{explicit} explicit + {hidden} hidden constraints",
        file=sys.stderr,
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    program, built, cs = _compile(args)
    report = _solve(args, built, cs)
    out = Path(args.out)
    export_mod.write_json(out, export_mod.solve_output_document(program, report))
    if args.report:
        Path(args.report).write_text(render_report(report), encoding="utf-8")
    print(
        f"{args.file}: best ratio {report.best_ratio:.4f} "
        f"({report.terminated}) -> {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_assets(args: argparse.Namespace) -> int:
    _, _, built = _load(args.file, args.seed)
    decisions = _asset_decisions(built, args.db, args.tau, (args.lambda_v, args.lambda_t))
    text = _decisions_tsv(decisions)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    program, report = export_mod.load_solve_output(Path(args.solve_output))
    _export(args.out, program, report, _asset_decisions(report.best_layout, args.db, args.tau))
    print(f"package written to {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    # The only command that needs `metrics`, and with it numpy.
    from sthl import metrics as metrics_mod

    embedder: metrics_mod.Embedder
    if args.embeddings:
        embedder = metrics_mod.TsvEmbedder.load(args.embeddings)
    else:
        embedder = metrics_mod.TrigramEmbedder()

    _, gen_typed, gen_built = _load(args.gen)
    _, gt_typed, gt_built = _load(args.gt)

    def object_items(built: SceneLayout) -> list[tuple[str, str]]:
        return [
            (obj.id, f"{obj.color} {obj.category} {obj.material} {obj.features}".strip())
            for obj in built.objects
        ]

    def constraint_texts(typed) -> list[str]:
        return [
            print_assertion(stmt.condition)
            for stmt in typed.program.statements
            if isinstance(stmt, Assert)
        ]

    obj_scores = metrics_mod.object_resemblance(
        object_items(gen_built), object_items(gt_built), embedder, args.tau
    )
    layout_scores = metrics_mod.layout_resemblance(
        constraint_texts(gen_typed),
        constraint_texts(gt_typed),
        gt_typed.objects(),
        embedder,
        args.tau,
    )
    overall = metrics_mod.overall_resemblance(obj_scores, layout_scores)
    for label, scores in (("object", obj_scores), ("layout", layout_scores), ("overall", overall)):
        print(
            f"{label}: precision={scores.precision:.4f} recall={scores.recall:.4f} "
            f"f1={scores.f1:.4f} (tp={scores.tp} fp={scores.fp} fn={scores.fn})",
            file=sys.stderr,
        )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    pkg = pipeline(args)
    print(
        f"{args.file}: scene package with {len(pkg.objects)} objects -> {args.out}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _default_seed() -> int:
    value = os.environ.get("STHL_SEED", "0")
    try:
        return int(value)
    except ValueError:
        return 0


def _positive_int(minimum: int, what: str):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
        return value

    return convert


def _finite_float(text: str) -> float:
    """A float option's value; NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {text!r}")
    return value


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use. It holds no
    per-call state: `run` resolves the seed and the command itself."""
    parser = argparse.ArgumentParser(
        prog="sthl",
        description="Toolchain for ScenethesisLang scene specifications",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # None means "not given": `run` reads STHL_SEED on every call.
    seed_kwargs = dict(type=int, default=None, help="RNG seed (env STHL_SEED)")

    p = sub.add_parser("parse", help="parse a program and report diagnostics")
    p.add_argument("file")
    p.add_argument("--json-ast", action="store_true", help="print the AST as JSON")

    p = sub.add_parser("fmt", help="print the canonical form of a program")
    p.add_argument("file")

    p = sub.add_parser("check", help="type-check and compile constraints")
    p.add_argument("file")
    p.add_argument("--seed", **seed_kwargs)

    p = sub.add_parser("solve", help="solve a program's layout")
    p.add_argument("file")
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--k", type=_positive_int(1, "k"), default=3, help="batch size")
    p.add_argument("--T", type=_positive_int(0, "T"), default=5, help="max iterations")
    p.add_argument("--out", default=DEFAULT_SOLVE_OUT, help="solve output file")
    p.add_argument("--report", default=None, help="also write the text report here")

    p = sub.add_parser("assets", help="formulate queries and decide retrieve-vs-generate")
    p.add_argument("file")
    p.add_argument("--db", default=None, help="asset index tsv")
    p.add_argument("--tau", type=_finite_float, default=assets_mod.DEFAULT_TAU)
    p.add_argument("--lambda-v", type=_finite_float, default=assets_mod.DEFAULT_VISUAL_WEIGHT)
    p.add_argument("--lambda-t", type=_finite_float, default=assets_mod.DEFAULT_SEMANTIC_WEIGHT)
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--out", default=None, help="write decisions tsv here")

    p = sub.add_parser("export", help="assemble a scene package from a solve output")
    p.add_argument("solve_output")
    p.add_argument("--out", required=True, help="package directory")
    p.add_argument("--db", default=None)
    p.add_argument("--tau", type=_finite_float, default=assets_mod.DEFAULT_TAU)

    p = sub.add_parser("eval", help="resemblance metrics between two programs")
    p.add_argument("--gen", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--tau", type=_finite_float, default=0.7)
    p.add_argument("--embeddings", default=None, help="precomputed vectors tsv")

    p = sub.add_parser("pipeline", help="run the full pipeline to a scene package")
    p.add_argument("file")
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--k", type=_positive_int(1, "k"), default=3)
    p.add_argument("--T", type=_positive_int(0, "T"), default=5)
    p.add_argument("--tau", type=_finite_float, default=assets_mod.DEFAULT_TAU)
    p.add_argument("--eta", type=_finite_float, default=WALL_THICKNESS, help="wall thickness")
    p.add_argument("--db", default=None)
    p.add_argument("--out", default="scene_package")
    p.add_argument("--keep-intermediates", action="store_true")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if getattr(args, "eta", 0.0) < 0:
        parser.error("eta must be non-negative")
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()
    # Looked up at call time, so a wrapped `_cmd_<command>` is the one run.
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except SthlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

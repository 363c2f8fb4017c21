"""Seeded workload generators and the item runners the benchmark times.

Every input is a file written under the run's work directory; the program
only ever sees those files, through the same `sthl` commands a user or a
CI script would run (in-process, one caller, closed loop).

rooms      The three README fixtures with the default solver (k=3, T=5),
           then rounds of one seeded `tests/scenegen.py` single-room scene
           for each n in 6..16, placed and exported with T=0. All object
           pairs share one room.
house      Seeded houses of 3-4 scenegen-style 7 m rooms with 4-6 objects
           each and one axis ordering per room, laid out 2*eta apart,
           through `sthl pipeline` with T=0; then the package is read back
           and one room is re-solved. Most collision pairs cross rooms.
           One ordering per room, not one for most objects, because an
           ordering the greedy placement cannot meet makes it try all its
           candidates, which made one house's cost vary 0.4 (coefficient
           of variation) between seeds.
authoring  Large seeded programs (40-80 objects, about 2.5 asserts per
           object, 3 regions) through fmt, fmt again, check, assets against
           a seeded 2,000-entry asset index, and eval against their own
           formatted text. No solve.

Seeded scenes run with T=0 because the repair loop's cost per scene varies
by two orders of magnitude with the seed on the seed commit (0.05-25 s for
one n=16 scene), which no run of a few tens of seconds can sample steadily.
The fixtures keep T=5, so every rooms run still goes through batch
selection, repair and bounds enforcement.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from scenegen import generate_fixture
from sthl import cli, export, solver
from sthl.dsl.printer import format_number

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("livingroom", "bedroom", "contradiction")
ROOM_SIZES = tuple(range(6, 17))
# One round: the objects per room of each house, in a seeded order per house,
# so every house of a given size holds the same number of objects.
HOUSES = ((4, 5, 6), (4, 5, 5, 6), (4, 5, 5, 6))
HOUSE_ORDERINGS = 1  # per room; see house_source
AUTHORING_SIZES = (40, 50, 60, 70, 80)
ROUNDS = {"rooms": 3, "house": 10, "authoring": 3}  # per run; see Deck
ASSET_INDEX_SIZE = 2000
ETA = 0.03  # the pipeline's default wall thickness

CATEGORIES = (
    "chair", "table", "lamp", "sofa", "shelf", "desk", "bed", "cabinet", "rug", "plant",
    "stool", "bench", "dresser", "mirror", "ottoman", "wardrobe", "armchair", "bookcase",
    "nightstand", "crate",
)
COLORS = ("red", "blue", "white", "black", "green", "walnut", "grey", "beige", "teal", "ivory")
MATERIALS = ("oak", "steel", "linen", "leather", "glass", "marble", "velvet", "pine", "brass", "wicker")
FEATURES = ("soft", "tall", "modern", "matte", "rustic", "glossy", "compact", "carved", "padded", "minimal")


class ItemError(Exception):
    """An `sthl` command in an item exited non-zero."""


@dataclass(frozen=True)
class Item:
    key: str  # identity of the inputs: equal keys give byte-identical outputs
    source: Path
    seed: int  # the program's own --seed for this item
    T: int = 0
    room: str = ""  # house: the region re-solved after reading the package back


@dataclass
class Outcome:
    out_dir: Path
    read: object = None  # house: the package as read back
    resolved: object = None  # house: the package after re-solving `room`
    texts: dict[str, str] = field(default_factory=dict)  # authoring: command outputs


# ---------------------------------------------------------------------------
# Generators


def _n(value: float) -> str:
    return format_number(round(value, 3))


def _place(rng: random.Random, count: int, x0: float, size: float, sizes, gap: float):
    """Rejection-sample non-overlapping floor boxes in [x0, x0+size] x [0, size].

    Returns (x, z, ex, ey, ez) tuples; boxes that do not fit are dropped.
    """
    boxes: list[tuple[float, float, float, float, float]] = []
    for _ in range(count):
        ex, ey, ez = (round(rng.uniform(lo, hi), 2) for lo, hi in sizes)
        for _ in range(400):
            x = round(rng.uniform(x0 + ex / 2 + gap, x0 + size - ex / 2 - gap), 3)
            z = round(rng.uniform(ez / 2 + gap, size - ez / 2 - gap), 3)
            if all(
                abs(x - bx) >= (ex + bex) / 2 + gap or abs(z - bz) >= (ez + bez) / 2 + gap
                for bx, bz, bex, _, bez in boxes
            ):
                boxes.append((x, z, ex, ey, ez))
                break
    return boxes


def _ordering(a: str, pa, b: str, pb, margin: str = "") -> str:
    """`a` before `b` along the axis where their centers are further apart."""
    axis = 0 if abs(pa[0] - pb[0]) >= abs(pa[1] - pb[1]) else 1
    name = "xz"[axis]
    if pa[axis] > pb[axis]:
        a, b = b, a
    return f"{a}.pos.{name}{margin} < {b}.pos.{name}"


def _region_lines(name: str, x0: float, size: float) -> list[str]:
    return [
        f"region {name};",
        f"{name}.pos <- vec3({_n(x0 + size / 2)}, 0, {_n(size / 2)});",
        f"{name}.scale <- vec3({_n(size)}, 3, {_n(size)});",
    ]


def house_source(seed: int, per_room: tuple[int, ...], size: float = 7.0) -> str:
    """A row of scenegen-style rooms, 2*eta apart, holding `per_room[j]`
    objects each, with constraints derived from a hidden valid layout (so
    every house is satisfiable): every object inside its room and below the
    ceiling, and one axis ordering per room."""
    rng = random.Random(seed)
    lines: list[str] = []
    asserts: list[str] = []
    for j, count in enumerate(per_room):
        room = f"room{j}"
        x0 = j * (size + 2 * ETA)
        lines += _region_lines(room, x0, size)
        boxes = _place(rng, count, x0, size, ((0.4, 1.2), (0.3, 1.0), (0.4, 1.2)), 0.0)
        names = [f"r{j}_item{i}" for i in range(len(boxes))]
        for name, (x, z, ex, ey, ez) in zip(names, boxes):
            lines += [f"object {name};", f"{name}.scale <- vec3({_n(ex)}, {_n(ey)}, {_n(ez)});"]
            asserts += [f"assert inside({name}, {room});", f"assert {name}.pos.y < 3;"]
        orderings = [
            _ordering(names[i], a, names[k], b)
            for i, a in enumerate(boxes)
            for k, b in enumerate(boxes[i + 1 :], i + 1)
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 0.3
        ]
        asserts += [f"assert {o};" for o in rng.sample(orderings, min(HOUSE_ORDERINGS, len(orderings)))]
    return "\n".join(lines + asserts) + "\n"


def authoring_source(seed: int, n_objects: int, n_regions: int = 3, size: float = 10.0) -> str:
    """A large program whose stated layout satisfies every constraint.

    All objects state pos, scale, color, material and features; about 2.5
    asserts per object mix inside, rand-margined orderings (inline and
    through Number variables), dot distances, vec3 offsets, || and !.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    placed: list[tuple[str, str, tuple]] = []  # (name, region, (x, z, ex, ey, ez))
    per_region = [n_objects // n_regions + (j < n_objects % n_regions) for j in range(n_regions)]
    for j, count in enumerate(per_region):
        region = f"region{j}"
        x0 = j * (size + 2 * ETA)
        lines += _region_lines(region, x0, size)
        for box in _place(rng, count, x0, size, ((0.4, 1.2), (0.3, 1.2), (0.4, 1.2)), 0.05):
            name = f"{rng.choice(CATEGORIES)}_{len(placed)}"
            placed.append((name, region, box))

    props: dict[str, tuple[str, str]] = {}
    asserts: list[str] = []
    for name, region, (x, z, ex, ey, ez) in placed:
        color, material = rng.choice(COLORS), rng.choice(MATERIALS)
        features = " ".join(rng.sample(FEATURES, 2))
        props[name] = (color, material)
        lines += [
            f"object {name};",
            f"{name}.scale <- vec3({_n(ex)}, {_n(ey)}, {_n(ez)});",
            f"{name}.pos <- vec3({_n(x)}, {_n(ey / 2)}, {_n(z)});",
            f'{name}.color <- "{color}";',
            f'{name}.material <- "{material}";',
            f'{name}.features <- "{features}";',
        ]
        asserts.append(f"assert inside({name}, {region});")

    by_region: dict[str, list] = {}
    for entry in placed:
        by_region.setdefault(entry[1], []).append(entry)
    regions = [r for r in by_region if len(by_region[r]) >= 2]
    for k in range(round(1.5 * len(placed))):
        (a, region, pa), (b, _, pb) = rng.sample(by_region[rng.choice(regions)], 2)
        kind = k % 6
        if kind == 0:
            asserts.append(f"assert {_ordering(a, pa, b, pb, ' + rand(0.05, 0.2)')};")
        elif kind == 1:
            var = f"gap{k}"
            lines += [f"Number {var};", f"{var} <- rand(0.05, 0.2);"]
            asserts.append(f"assert {_ordering(a, pa, b, pb, f' + {var}')};")
        elif kind == 2:
            dx, dy, dz = pa[0] - pb[0], (pa[3] - pb[3]) / 2, pa[1] - pb[1]
            bound = int(dx * dx + dy * dy + dz * dz) + 1
            asserts.append(f"assert dot({a}.pos - {b}.pos, {a}.pos - {b}.pos) < {bound};")
        elif kind == 3:
            j = int(region[len("region"):])
            cx = j * (size + 2 * ETA) + size / 2
            asserts.append(
                f"assert dot({a}.pos - vec3({_n(cx)}, 0, {_n(size / 2)}), vec3(1, 0, 0)) "
                f"< {_n(size / 2)};"
            )
        elif kind == 4:
            other = rng.choice([c for c in COLORS if c != props[a][0]])
            asserts.append(f'assert !({a}.color = "{other}") && {a}.material = "{props[a][1]}";')
        else:
            axis = rng.choice("xz")
            asserts.append(f"assert {_ordering(a, pa, b, pb)} || {a}.pos.{axis} > {b}.pos.{axis};")
    return "\n".join(lines + asserts) + "\n"


def asset_index(seed: int, size: int = ASSET_INDEX_SIZE) -> str:
    """`id<TAB>model<TAB>thumbnail<TAB>description` rows over the vocabulary
    the authoring programs use."""
    rng = random.Random(seed)
    rows = []
    for i in range(size):
        description = (
            f"a 3D model of a {rng.choice(COLORS)} {rng.choice(CATEGORIES)} made with "
            f"{rng.choice(MATERIALS)} that is {' '.join(rng.sample(FEATURES, 2))}"
        )
        rows.append(f"a{i:04d}\tmodels/a{i:04d}.glb\tthumbs/a{i:04d}.png\t{description}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Decks: each round holds one item per stratum, in a seeded order


class Deck:
    """The inputs of one run, fixed by the seed: for rooms the fixtures,
    then ROUNDS rounds of one input per stratum, each round in a seeded
    order."""

    def __init__(self, workload: str, seed: int, inputs: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        inputs.mkdir(parents=True, exist_ok=True)
        self.index = inputs / "assets.tsv"
        if workload == "authoring":
            self.index.write_text(asset_index(seed), encoding="utf-8")
        self.items: list[Item] = []
        if workload == "rooms":
            rng = random.Random(f"rooms/{seed}/fixtures")
            self.items += [
                Item(f"fixture/{name}", ROOT / "fixtures" / f"{name}.sthl", rng.randrange(1 << 31), T=5)
                for name in FIXTURES
            ]
        for number in range(ROUNDS[workload]):
            self.items += self._round(number)

    def _write(self, name: str, text: str) -> Path:
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return path

    def _round(self, number: int) -> list[Item]:
        rng = random.Random(f"{self.workload}/{self.seed}/{number}")
        items = []
        if self.workload == "rooms":
            for n in rng.sample(ROOM_SIZES, len(ROOM_SIZES)):
                scene = generate_fixture(rng.randrange(1 << 31), n)
                name = f"rooms-{number}-n{n}.sthl"
                items.append(Item(name, self._write(name, scene.source), rng.randrange(1 << 31)))
        elif self.workload == "house":
            for k, per_room in enumerate(rng.sample(HOUSES, len(HOUSES))):
                name = f"house-{number}-{k}.sthl"
                per_room = tuple(rng.sample(per_room, len(per_room)))
                text = house_source(rng.randrange(1 << 31), per_room)
                room = f"room{rng.randrange(len(per_room))}"
                items.append(Item(name, self._write(name, text), rng.randrange(1 << 31), room=room))
        else:
            for n in rng.sample(AUTHORING_SIZES, len(AUTHORING_SIZES)):
                name = f"authoring-{number}-n{n}.sthl"
                text = authoring_source(rng.randrange(1 << 31), n)
                items.append(Item(name, self._write(name, text), rng.randrange(1 << 31)))
        return items


# ---------------------------------------------------------------------------
# Items (the timed part)


def run_sthl(*argv) -> tuple[str, str]:
    """Run one `sthl` command in-process; returns (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    if code != 0:
        raise ItemError(f"sthl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), err.getvalue()


def run_item(workload: str, item: Item, out_dir: Path, index: Path) -> Outcome:
    seed = item.seed
    if workload == "authoring":
        out_dir.mkdir(parents=True, exist_ok=True)
        formatted = out_dir / "fmt.sthl"
        first, _ = run_sthl("fmt", item.source)
        formatted.write_text(first, encoding="utf-8")
        second, _ = run_sthl("fmt", formatted)
        run_sthl("check", item.source, "--seed", seed)
        run_sthl("assets", item.source, "--db", index, "--seed", seed, "--out", out_dir / "decisions.tsv")
        _, scores = run_sthl("eval", "--gen", formatted, "--gt", item.source)
        return Outcome(out_dir, texts={"fmt": first, "refmt": second, "eval": scores})

    run_sthl("pipeline", item.source, "--seed", seed, "--T", item.T, "--out", out_dir)
    outcome = Outcome(out_dir)
    if workload == "house":
        outcome.read = export.read_package(out_dir)
        cfg = solver.SolverConfig(rng_seed=seed, max_iterations=item.T)
        outcome.resolved = export.resolve_region(outcome.read, item.room, cfg)
    return outcome

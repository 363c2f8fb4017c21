"""Compile programs into evaluable constraint sets and check satisfaction.

Compilation is total on type-checked programs. It reads the program as
`freeze_program` freezes it, the one definition of what every `rand`
draws (constraints must be stable across solver iterations, and the
built scene must see the same values), collects
`allowCollide`/`allowOutside` exceptions, and injects the hidden
physical-plausibility constraints: pairwise non-collision, per-object
gravity support, and per-object region containment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Union

from sthl import scene
from sthl.dsl.nodes import (
    CHILD_FIELDS,
    AllowCollide,
    AllowOutside,
    And,
    Arith,
    Assert,
    Assertion,
    Assign,
    Compare,
    Dot,
    Expr,
    InsidePred,
    Name,
    Not,
    NumberLit,
    Or,
    PropRef,
    Rand,
    Rot,
    Statement,
    StringLit,
    Vec3,
    chain,
    idents,
    rebuild,
)
from sthl.dsl.printer import print_assertion
from sthl.dsl.typecheck import TypedProgram
from sthl.errors import EvalError

#: Absolute tolerance for `=` comparisons on numbers.
EQ_TOLERANCE = 1e-6

#: What a region's `pos`, `scale` and `rot` are when the program assigns none.
REGION_DEFAULTS = {"pos": (0.0, 0.0, 0.0), "scale": (10.0, 3.0, 10.0), "rot": (0.0, 0.0, 0.0)}


# ---------------------------------------------------------------------------
# Hidden-constraint predicates (not part of the user-writable grammar)


@dataclass(frozen=True)
class NoCollision:
    first: str
    second: str


@dataclass(frozen=True)
class Supported:
    name: str


CompiledAssertion = Union[Assertion, NoCollision, Supported]

PROVENANCE_EXPLICIT = "explicit"
PROVENANCE_COLLISION = "hidden-collision"
PROVENANCE_GRAVITY = "hidden-gravity"
PROVENANCE_BOUNDARY = "hidden-boundary"


@dataclass(frozen=True)
class CompiledConstraint:
    id: int
    assertion: CompiledAssertion
    provenance: str
    involved: frozenset[str]
    #: The variable versions in `involved` that `_version_order` ranks, in its order.
    versions: tuple[str, ...] = ()


@dataclass
class ConstraintSet:
    constraints: list[CompiledConstraint]
    allow_collide: frozenset[tuple[str, str]]  # pairs stored sorted
    allow_outside: frozenset[str]
    #: Frozen value of each variable version (`freeze_program`): a
    #: variable's last version under its name, earlier ones as `name#index`.
    bindings: dict[str, Expr] = field(default_factory=dict)
    #: object id -> region id used for the hidden boundary constraints.
    region_assignments: dict[str, str] = field(default_factory=dict)
    #: region id -> property -> the frozen value its last assignment states.
    region_values: dict[str, dict[str, Expr]] = field(default_factory=dict)
    # Index built once from `constraints`: id -> constraint, each involved
    # name -> the constraints naming it, and the `Supported` constraints,
    # in set order.
    _by_id: dict[int, CompiledConstraint] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, tuple[CompiledConstraint, ...]] = field(
        init=False, repr=False, compare=False
    )
    _supported: tuple[CompiledConstraint, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, list[CompiledConstraint]] = {}
        for c in self.constraints:
            for name in c.involved:
                by_name.setdefault(name, []).append(c)
        self._by_id = {c.id: c for c in self.constraints}
        self._by_name = {name: tuple(cs) for name, cs in by_name.items()}
        self._supported = tuple(c for c in self.constraints if isinstance(c.assertion, Supported))

    def context(self, layout: scene.SceneLayout, rng_seed: int = 0) -> "EvalContext":
        """The one way to get a context for evaluating this set on `layout`.
        `rng_seed` is stored but not read; every `rand` is already frozen."""
        return EvalContext(layout, self.bindings, rng_seed, self.region_values)

    def by_id(self, constraint_id: int) -> CompiledConstraint:
        return self._by_id[constraint_id]

    def touching(self, name: str) -> tuple[CompiledConstraint, ...]:
        """The constraints whose `involved` names `name`, in set order."""
        return self._by_name.get(name, ())

    def affected_by(self, name: str) -> tuple[CompiledConstraint, ...]:
        """The constraints whose verdict can change when object `name` moves:
        those naming it, then every other `Supported` constraint, since
        support reads every object of the layout. Any other verdict is
        unchanged by the move."""
        return self.touching(name) + tuple(
            c for c in self._supported if name not in c.involved
        )

    def verdicts(self, layout: scene.SceneLayout) -> dict[int, bool]:
        """One full evaluation pass: every constraint's verdict on `layout`, by id."""
        ctx = self.context(layout)
        return {c.id: evaluate(c, ctx) for c in self.constraints}


@dataclass
class EvalContext:
    layout: scene.SceneLayout
    bindings: dict[str, Expr] = field(default_factory=dict)
    rng_seed: int = 0
    region_values: dict[str, dict[str, Expr]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Region assignment inference


def infer_region_assignments(typed: TypedProgram) -> dict[str, str]:
    """Map each object to its region.

    An explicit `inside(obj, region)` assertion pins the assignment (first
    one in statement order wins); otherwise objects default to the first
    declared region. Programs without regions yield an empty map.
    """
    regions = typed.regions()
    if not regions:
        return {}
    assignments: dict[str, str] = {}
    for stmt in typed.program.statements:
        if not isinstance(stmt, Assert):
            continue
        # The `inside` atoms under `&&` and `||`, left to right: the left
        # operand is pushed last so it pops first.
        stack = [stmt.condition]
        while stack:
            node = stack.pop()
            if isinstance(node, InsidePred):
                assignments.setdefault(node.inner, node.outer)
            elif isinstance(node, (And, Or)):
                stack += (node.right, node.left)
            # A negated inside() must not pin the region assignment.
    for obj in typed.objects():
        assignments.setdefault(obj, regions[0])
    return assignments


# ---------------------------------------------------------------------------
# Compilation


def compile_constraints(typed: TypedProgram, seed: int = 0) -> ConstraintSet:
    """Build the full constraint set for a type-checked program.

    Hidden constraints follow the explicit ones: one non-collision
    constraint per unordered object pair not in the allow list, one support
    constraint per object, and one containment constraint per object not
    allowed outside (the latter two only when the program declares a
    region).
    """
    env: dict[str, Expr] = {}
    explicit: list[CompiledAssertion] = []
    allow_collide: set[tuple[str, str]] = set()
    allow_outside: set[str] = set()
    region_values: dict[str, dict[str, Expr]] = {name: {} for name in typed.regions()}

    for stmt in freeze_program(typed, seed):
        if isinstance(stmt, Assert):
            explicit.append(stmt.condition)
        elif isinstance(stmt, AllowCollide):
            allow_collide.add(tuple(sorted((stmt.first, stmt.second))))  # type: ignore[arg-type]
        elif isinstance(stmt, AllowOutside):
            allow_outside.add(stmt.name)
        elif isinstance(stmt, Assign) and stmt.prop is None:
            env[stmt.target] = stmt.value
        elif isinstance(stmt, Assign) and stmt.target in region_values:
            region_values[stmt.target][stmt.prop] = stmt.value

    rank = _version_order(env)
    constraints: list[CompiledConstraint] = []
    for assertion in explicit:
        involved = frozenset(_involved(assertion, env))
        constraints.append(
            CompiledConstraint(
                id=len(constraints),
                assertion=assertion,
                provenance=PROVENANCE_EXPLICIT,
                involved=involved,
                versions=tuple(sorted(rank.keys() & involved, key=rank.__getitem__)),
            )
        )

    objects = typed.objects()
    assignments = infer_region_assignments(typed)
    for i, first in enumerate(objects):
        for second in objects[i + 1 :]:
            if tuple(sorted((first, second))) in allow_collide:
                continue
            constraints.append(
                CompiledConstraint(
                    id=len(constraints),
                    assertion=NoCollision(first, second),
                    provenance=PROVENANCE_COLLISION,
                    involved=frozenset({first, second}),
                )
            )
    if assignments:
        for name in objects:
            constraints.append(
                CompiledConstraint(
                    id=len(constraints),
                    assertion=Supported(name),
                    provenance=PROVENANCE_GRAVITY,
                    involved=frozenset({name}),
                )
            )
        for name in objects:
            if name in allow_outside:
                continue
            constraints.append(
                CompiledConstraint(
                    id=len(constraints),
                    assertion=InsidePred(name, assignments[name]),
                    provenance=PROVENANCE_BOUNDARY,
                    involved=frozenset({name, assignments[name]}),
                )
            )

    return ConstraintSet(
        constraints=constraints,
        allow_collide=frozenset(allow_collide),
        allow_outside=frozenset(allow_outside),
        bindings=env,
        region_assignments=assignments,
        region_values=region_values,
    )


def _involved(assertion: CompiledAssertion, bindings: dict[str, Expr]) -> set[str]:
    """Identifiers an assertion depends on, closed over variable bindings:
    a variable bound to `a.pos.x` brings in `a`, transitively, and the
    variable names themselves stay in the set."""
    if isinstance(assertion, NoCollision):
        return {assertion.first, assertion.second}
    if isinstance(assertion, Supported):
        return {assertion.name}
    names = idents(assertion)
    pending = [name for name in names if name in bindings]
    while pending:
        for ident in idents(bindings[pending.pop()]):
            if ident not in names:
                names.add(ident)
                if ident in bindings:
                    pending.append(ident)
    return names


def _version_order(bindings: dict[str, Expr]) -> dict[str, int]:
    """Each version's rank in an order that puts it after every version its
    value names. A version on a binding cycle, or reading one, has none."""
    waiting = {key: idents(value) & bindings.keys() for key, value in bindings.items()}
    readers: dict[str, list[str]] = {}
    for key, names in waiting.items():
        for name in names:
            readers.setdefault(name, []).append(key)
    ready = [key for key, names in waiting.items() if not names]
    rank: dict[str, int] = {}
    for key in ready:  # grows as ranking a version readies its readers
        rank[key] = len(rank)
        for reader in readers.get(key, ()):
            waiting[reader].discard(key)
            if not waiting[reader]:
                ready.append(reader)
    return rank


def freeze_program(typed: TypedProgram, seed: int = 0) -> tuple[Statement, ...]:
    """The program's statements with every `rand` drawn, the one definition
    that the built scene and the constraints both read.

    One `random.Random(seed)` serves the whole program, drawing in statement
    order (within an expression, bounds before their `rand`, left to right).
    Each assignment to a variable defines a version of it, named `name` if
    it is the last and `name#index` (its statement's index) if not. An
    assignment value names the version live at its statement, or the
    variable (its last version) where none is; it is folded to a literal
    when it reads no placement and no version that is not one. Assertion
    conditions keep variable names, so they read last versions.

    The draw is made once per typed program and seed (`TypedProgram.frozen`
    keeps it), so `build_scene` and `compile_constraints` read the same
    statements.
    """
    frozen = typed.frozen.get(seed)
    if frozen is None:
        frozen = typed.frozen[seed] = _freeze(typed.program.statements, seed)
    return frozen


def _freeze(statements: tuple[Statement, ...], seed: int) -> tuple[Statement, ...]:
    rng = random.Random(seed)
    last = {
        stmt.target: index
        for index, stmt in enumerate(statements)
        if isinstance(stmt, Assign) and stmt.prop is None
    }
    live: dict[str, Expr] = {}  # variable -> its live version's literal, or a Name of it
    frozen: list[Statement] = []
    for index, stmt in enumerate(statements):
        if isinstance(stmt, Assign):
            value = _fold(_freeze_node(stmt.value, live, rng))
            if stmt.prop is None:
                key = stmt.target if last[stmt.target] == index else f"{stmt.target}#{index}"
                folded = literal_value(value) is not None
                live[stmt.target] = value if folded else Name(key, span=stmt.span)
                stmt = replace(stmt, target=key, value=value)
            else:
                stmt = rebuild(stmt, [value])
        elif isinstance(stmt, Assert):
            stmt = rebuild(stmt, [_freeze_node(stmt.condition, {}, rng)])
        frozen.append(stmt)
    return tuple(frozen)


def _freeze_node(node, env: dict[str, Expr], rng: random.Random):
    """An expression or assertion with every `rand` drawn, left to right,
    and every variable that `env` holds replaced by what it holds."""
    kind = type(node)
    if kind is Rand:
        low = _freeze_node(node.low, env, rng)
        high = _freeze_node(node.high, env, rng)
        if isinstance(low, NumberLit) and isinstance(high, NumberLit):
            return NumberLit(rng.uniform(low.value, high.value), span=node.span)
        # Bounds depending on layout properties cannot be frozen; sample the
        # unit draw now so evaluation stays deterministic.
        u = rng.random()
        return Arith(
            "+",
            low,
            Arith("*", NumberLit(u), Arith("-", high, low)),
            span=node.span,
        )
    if kind is Name:
        return env.get(node.ident, node)
    if kind is Arith or kind is And or kind is Or:
        foot, links = chain(node)
        out = _freeze_node(foot, env, rng)
        for link in links:
            out = rebuild(link, (out, _freeze_node(link.right, env, rng)))
        return out
    fields = CHILD_FIELDS.get(kind)
    if fields is None:
        return node
    return rebuild(node, [_freeze_node(getattr(node, f), env, rng) for f in fields])


def _fold(node: Expr) -> Expr:
    """`node` as a literal if it reads no variable and no placement."""
    if literal_value(node) is not None or idents(node):
        return node
    value = _eval_expr(node, None, _NO_VERSIONS)  # type: ignore[arg-type]  # reads no context
    if isinstance(value, tuple):
        return (Rot if type(node) is Rot else Vec3)(*map(NumberLit, value), span=node.span)
    return (StringLit if isinstance(value, str) else NumberLit)(value, span=node.span)


def literal_value(node: Expr) -> Value | None:
    """The value a literal states (a number, a string, or a `vec3` or `rot`
    of numbers), or None when `node` is not one."""
    kind = type(node)
    if kind is NumberLit or kind is StringLit:
        return node.value  # type: ignore[union-attr]
    if kind is Vec3 or kind is Rot:
        parts = [getattr(node, f) for f in CHILD_FIELDS[kind]]
        if all(type(part) is NumberLit for part in parts):
            return tuple(part.value for part in parts)
    return None


# ---------------------------------------------------------------------------
# Evaluation

Value = Union[float, str, tuple]
#: Variable version -> its value, or the EvalError evaluating it raised.
VersionValues = dict[str, Union[Value, EvalError]]
_NO_VERSIONS: VersionValues = {}  # read, never written


def evaluate(constraint: CompiledConstraint, ctx: EvalContext) -> bool:
    """Truth value of one compiled constraint against the context's layout.
    Each variable version it reads is evaluated once, in `versions` order;
    one that fails holds its EvalError, raised where a read reaches it, as
    evaluating it there would raise it."""
    values = _NO_VERSIONS
    if constraint.versions:
        values = {}
        for key in constraint.versions:
            if key in ctx.bindings:
                try:
                    values[key] = _eval_expr(ctx.bindings[key], ctx, values)
                except EvalError as exc:
                    values[key] = exc
    return _eval_assertion(constraint.assertion, ctx, values)


def satisfaction_ratio(cs: ConstraintSet, ctx: EvalContext) -> float:
    """Satisfied over total constraints; an empty set counts as fully satisfied."""
    if not cs.constraints:
        return 1.0
    return sum(evaluate(c, ctx) for c in cs.constraints) / len(cs.constraints)


def _eval_assertion(node: CompiledAssertion, ctx: EvalContext, values: VersionValues) -> bool:
    if isinstance(node, NoCollision):
        layout = ctx.layout
        return not scene.collides(_object(layout, node.first), _object(layout, node.second))
    if isinstance(node, Supported):
        return scene.supported(_object(ctx.layout, node.name), ctx.layout)
    if isinstance(node, InsidePred):
        try:
            region = ctx.layout.region(node.outer)
        except KeyError:
            raise EvalError(f"region {node.outer!r} missing from layout") from None
        return scene.inside(_object(ctx.layout, node.inner), region)
    if isinstance(node, (And, Or)):
        foot, links = chain(node)
        value = _eval_assertion(foot, ctx, values)
        # A chain of one operator is decided by the first false operand of
        # `&&` or the first true one of `||`; later operands are not read.
        undecided = isinstance(node, And)
        for link in links:
            if bool(value) is not undecided:
                break
            value = _eval_assertion(link.right, ctx, values)
        return value
    if isinstance(node, Not):
        return not _eval_assertion(node.operand, ctx, values)
    assert isinstance(node, Compare)
    return _compare(
        node.op, _eval_expr(node.left, ctx, values), _eval_expr(node.right, ctx, values)
    )


def _object(layout: scene.SceneLayout, name: str) -> scene.SceneObject:
    try:
        return layout.object(name)
    except KeyError:
        raise EvalError(f"object {name!r} missing from layout") from None


def _compare(op: str, left: Value, right: Value) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        if op == "=":
            return abs(left - right) <= EQ_TOLERANCE
        if op == "!=":
            return not abs(left - right) <= EQ_TOLERANCE
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    raise EvalError(f"ordering comparison {op!r} on non-numbers")


def _eval_expr(node: Expr, ctx: EvalContext, values: VersionValues) -> Value:
    if isinstance(node, NumberLit):
        return node.value
    if isinstance(node, StringLit):
        return node.value
    if isinstance(node, Name):
        value = values.get(node.ident)
        if value is None:
            if node.ident in ctx.bindings:
                raise EvalError(f"circular binding for variable {node.ident!r}")
            raise EvalError(f"variable {node.ident!r} was never assigned")
        if isinstance(value, EvalError):
            raise value
        return value
    if isinstance(node, PropRef):
        return _eval_propref(node, ctx)
    if isinstance(node, Arith):
        foot, links = chain(node)
        value = _eval_expr(foot, ctx, values)
        for link in links:
            value = _arith(link.op, value, _eval_expr(link.right, ctx, values))
        return value
    if isinstance(node, Vec3):
        return tuple(_eval_number(part, ctx, values) for part in (node.x, node.y, node.z))
    if isinstance(node, Rot):
        return tuple(_eval_number(part, ctx, values) for part in (node.rx, node.rz, node.ry))
    assert isinstance(node, Dot)
    left = _eval_expr(node.left, ctx, values)
    right = _eval_expr(node.right, ctx, values)
    if not (isinstance(left, tuple) and isinstance(right, tuple) and len(left) == len(right) == 3):
        raise EvalError("dot requires two Vector3 values")
    return sum(a * b for a, b in zip(left, right))


def _arith(op: str, left: Value, right: Value) -> Value:
    if isinstance(left, tuple) and isinstance(right, tuple) and op in ("+", "-"):
        if len(left) != len(right):
            raise EvalError("vector arithmetic on mismatched lengths")
        if op == "+":
            return tuple(a + b for a, b in zip(left, right))
        return tuple(a - b for a, b in zip(left, right))
    if not isinstance(left, float) or not isinstance(right, float):
        raise EvalError(f"arithmetic {op!r} on non-numbers")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0.0:
        # IEEE-style result keeps the solver alive on degenerate layouts.
        if left == 0.0:
            return float("nan")
        return float("inf") if left > 0 else float("-inf")
    return left / right


def _eval_number(node: Expr, ctx: EvalContext, values: VersionValues) -> float:
    value = _eval_expr(node, ctx, values)
    if not isinstance(value, float):
        raise EvalError("expected a number component")
    return value


_COMPONENT_INDEX = {
    "pos": {"x": 0, "y": 1, "z": 2},
    "scale": {"x": 0, "y": 1, "z": 2},
    # Rotation triples are stored in application order (x, z, y).
    "rot": {"x": 0, "z": 1, "y": 2},
}


def _eval_propref(node: PropRef, ctx: EvalContext) -> Value:
    layout = ctx.layout
    try:
        obj = layout.object(node.obj)
    except KeyError:
        obj = None
    if obj is not None:
        if node.prop == "pos":
            value: tuple = obj.transform.pos
        elif node.prop == "rot":
            value = obj.transform.rot
        elif node.prop == "scale":
            value = obj.transform.scale
        elif node.prop == "color":
            return obj.color
        elif node.prop == "material":
            return obj.material
        else:
            return obj.features
        if node.component is None:
            return value
        return value[_COMPONENT_INDEX[node.prop][node.component]]
    try:
        layout.region(node.obj)
    except KeyError:
        raise EvalError(f"identifier {node.obj!r} missing from layout") from None
    if node.prop not in REGION_DEFAULTS:
        raise EvalError(f"region {node.obj!r} has no property {node.prop!r}")
    # A region reads as the program states it, not as its polygon's bounds,
    # which differ once it is rotated: the literal `build_scene` builds it
    # from, which reads neither the layout nor a variable.
    stated = ctx.region_values.get(node.obj, {}).get(node.prop)
    value = REGION_DEFAULTS[node.prop] if stated is None else literal_value(stated)
    if value is None:
        raise EvalError(f"region {node.obj!r} {node.prop} reads a placement or a later variable")
    if node.component is None:
        return value
    return value[_COMPONENT_INDEX[node.prop][node.component]]


# ---------------------------------------------------------------------------
# Report formatting


def print_compiled_assertion(assertion: CompiledAssertion) -> str:
    if isinstance(assertion, NoCollision):
        return f"!collides({assertion.first}, {assertion.second})"
    if isinstance(assertion, Supported):
        return f"supported({assertion.name})"
    return print_assertion(assertion)


def format_verdict_line(constraint: CompiledConstraint, satisfied: bool) -> str:
    state = "satisfied" if satisfied else "violated"
    text = print_compiled_assertion(constraint.assertion)
    return f"{constraint.id} {constraint.provenance} {state} {text}"

"""Random well-typed program generator for round-trip and end-to-end tests.

Besides arbitrary expressions, it states values a program can build:
rotated regions (`r.rot <- rot(0, 0, 90);`), positive region scales, and
variables reassigned from their own value (`v <- 1 + v;`); and its
expressions read regions' `pos`, `scale` and `rot` as well as objects'.
"""

from __future__ import annotations

import random

from sthl.dsl.nodes import (
    AllowCollide,
    AllowOutside,
    And,
    Arith,
    Assert,
    Assertion,
    Assign,
    Compare,
    Declare,
    Dot,
    Expr,
    InsidePred,
    Name,
    Not,
    NumberLit,
    Or,
    Program,
    PropRef,
    Rand,
    Rot,
    Statement,
    StringLit,
    ValueType,
    Vec3,
)

_SCALAR_VARS = (ValueType.NUMBER, ValueType.DEGREE)
_REASSIGNABLE = (*_SCALAR_VARS, ValueType.VECTOR3)
_WORDS = ("plush", "matte", "oak", "red", "blue", "soft", "tall", "modern", "warm")
_YAWS = (0.0, 30.0, 45.0, 90.0, 180.0, 270.0, -90.0, 450.0)


class ProgramGenerator:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.objects: list[str] = []
        self.regions: list[str] = []
        self.vars: dict[str, ValueType] = {}
        self.assigned: set[str] = set()  # variables assigned so far
        self.in_assertion = False  # only an assertion may read a region

    def readable(self) -> list[str]:
        """Names whose `pos`, `scale` and `rot` an expression may read here.
        An assertion reads objects and regions. An assignment reads objects
        only: a stated value must not depend on placement, so such reads
        stay the build errors they were, and region reads are left to
        assertions."""
        return self.objects + self.regions if self.in_assertion else self.objects

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # ------------------------------------------------------------------

    def number(self) -> NumberLit:
        choice = self.rng.random()
        if choice < 0.4:
            return NumberLit(float(self.rng.randint(-20, 20)))
        return NumberLit(round(self.rng.uniform(-50, 50), 3))

    def string(self) -> StringLit:
        words = self.rng.sample(_WORDS, k=self.rng.randint(1, 3))
        text = " ".join(words)
        if self.rng.random() < 0.2:
            text += ' with "quotes" and \\ stuff'
        if self.rng.random() < 0.1:
            text += "\n\tindented"
        return StringLit(text)

    def numeric_expr(self, depth: int = 0) -> Expr:
        options = ["literal"]
        if depth < 3:
            options += ["arith", "arith", "rand", "dot"]
        if self.readable():
            options += ["prop", "prop"]
        numeric_vars = [n for n, t in self.vars.items() if t in _SCALAR_VARS]
        if numeric_vars:
            options.append("var")
        kind = self.rng.choice(options)
        if kind == "literal":
            return self.number()
        if kind == "var":
            return Name(self.rng.choice(numeric_vars))
        if kind == "prop":
            obj = self.rng.choice(self.readable())
            prop = self.rng.choice(("pos", "scale", "rot"))
            comp = self.rng.choice(("x", "y", "z"))
            return PropRef(obj, prop, comp)
        if kind == "rand":
            return Rand(self.numeric_expr(depth + 1), self.numeric_expr(depth + 1))
        if kind == "dot":
            return Dot(self.vector_expr(depth + 1), self.vector_expr(depth + 1))
        op = self.rng.choice("+-*/")
        return Arith(op, self.numeric_expr(depth + 1), self.numeric_expr(depth + 1))

    def vector_expr(self, depth: int = 0) -> Expr:
        options = ["ctor"]
        if self.readable():
            options += ["prop", "prop"]
        if depth < 2:
            options.append("arith")
        vec_vars = [n for n, t in self.vars.items() if t is ValueType.VECTOR3]
        if vec_vars:
            options.append("var")
        kind = self.rng.choice(options)
        if kind == "ctor":
            return Vec3(
                self.numeric_expr(depth + 1),
                self.numeric_expr(depth + 1),
                self.numeric_expr(depth + 1),
            )
        if kind == "prop":
            obj = self.rng.choice(self.readable())
            return PropRef(obj, self.rng.choice(("pos", "scale")))
        if kind == "var":
            return Name(self.rng.choice(vec_vars))
        op = self.rng.choice("+-")
        return Arith(op, self.vector_expr(depth + 1), self.vector_expr(depth + 1))

    def rotation_expr(self, depth: int = 0) -> Expr:
        rot_vars = [n for n, t in self.vars.items() if t is ValueType.ROTATION]
        if rot_vars and self.rng.random() < 0.3:
            return Name(self.rng.choice(rot_vars))
        if self.readable() and self.rng.random() < 0.3:
            return PropRef(self.rng.choice(self.readable()), "rot")
        return Rot(
            self.numeric_expr(depth + 1),
            self.numeric_expr(depth + 1),
            self.numeric_expr(depth + 1),
        )

    # ------------------------------------------------------------------

    def comparison(self) -> Compare:
        if self.rng.random() < 0.85:
            op = self.rng.choice(("=", "!=", "<", "<=", ">", ">="))
            self.in_assertion = True
            try:
                return Compare(op, self.numeric_expr(), self.numeric_expr())
            finally:
                self.in_assertion = False
        op = self.rng.choice(("=", "!="))
        if self.objects and self.rng.random() < 0.5:
            obj = self.rng.choice(self.objects)
            prop = self.rng.choice(("color", "material", "features"))
            return Compare(op, PropRef(obj, prop), self.string())
        return Compare(op, self.string(), self.string())

    def assertion(self, depth: int = 0) -> Assertion:
        options = ["cmp", "cmp", "cmp"]
        if self.objects and self.regions:
            options.append("inside")
        if depth < 3:
            options += ["and", "or", "not"]
        kind = self.rng.choice(options)
        if kind == "cmp":
            return self.comparison()
        if kind == "inside":
            return InsidePred(self.rng.choice(self.objects), self.rng.choice(self.regions))
        if kind == "and":
            return And(self.assertion(depth + 1), self.assertion(depth + 1))
        if kind == "or":
            return Or(self.assertion(depth + 1), self.assertion(depth + 1))
        return Not(self.assertion(depth + 1))

    def assignment(self) -> Assign | None:
        choices = []
        if self.objects:
            choices += ["alpha", "beta"]
        if self.regions:
            choices += ["region_beta", "region_stated", "region_stated"]
        if self.vars:
            choices.append("var")
        if self.assigned & {n for n, t in self.vars.items() if t in _REASSIGNABLE}:
            choices.append("reassign")
        if not choices:
            return None
        kind = self.rng.choice(choices)
        if kind == "region_stated":
            return self.region_assignment(self.rng.choice(self.regions))
        if kind == "reassign":
            return self.reassignment()
        if kind == "alpha":
            prop = self.rng.choice(("color", "material", "features"))
            return Assign(self.rng.choice(self.objects), prop, self.string())
        if kind in ("beta", "region_beta"):
            target = self.rng.choice(self.objects if kind == "beta" else self.regions)
            prop = self.rng.choice(("pos", "scale", "rot"))
            value = self.rotation_expr() if prop == "rot" else self.vector_expr()
            return Assign(target, prop, value)
        name = self.rng.choice(list(self.vars))
        self.assigned.add(name)
        var_type = self.vars[name]
        if var_type in _SCALAR_VARS:
            value: Expr = self.numeric_expr()
        elif var_type is ValueType.VECTOR3:
            value = self.vector_expr()
        elif var_type is ValueType.ROTATION:
            value = self.rotation_expr()
        elif var_type in (ValueType.COLOR, ValueType.MATERIAL):
            value = self.string()
        else:  # Bool: only another Bool variable is assignable
            bools = [n for n, t in self.vars.items() if t is ValueType.BOOL]
            return Assign(name, None, Name(self.rng.choice(bools)))
        return Assign(name, None, value)

    def region_assignment(self, region: str) -> Assign:
        """A value a region builds with: a yaw-only rotation, a positive
        scale, or a literal position."""
        prop = self.rng.choice(("pos", "scale", "rot"))
        if prop == "rot":
            zero = NumberLit(0.0)
            return Assign(region, "rot", Rot(zero, zero, NumberLit(self.rng.choice(_YAWS))))
        if prop == "scale":
            size = [round(self.rng.uniform(3, 12), 2) for _ in range(3)]
            return Assign(region, "scale", Vec3(*map(NumberLit, size)))
        pos = [round(self.rng.uniform(-5, 5), 2), 0.0, round(self.rng.uniform(-5, 5), 2)]
        return Assign(region, "pos", Vec3(*map(NumberLit, pos)))

    def reassignment(self) -> Assign:
        """`v <- e op v` for a number or vector variable assigned before."""
        name = self.rng.choice(
            sorted(n for n in self.assigned if self.vars[n] in _REASSIGNABLE)
        )
        if self.vars[name] is ValueType.VECTOR3:
            return Assign(name, None, Arith(self.rng.choice("+-"), self.vector_expr(2), Name(name)))
        op = self.rng.choice("+-*/")
        return Assign(name, None, Arith(op, self.numeric_expr(3), Name(name)))

    def assertion_case(self, objects: list[str], region: str) -> Program:
        """`objects` in one region, a number variable assigned and then
        reassigned from its own value, up to two stated values of the
        region, then one assertion over all of them."""
        self.objects, self.regions = list(objects), [region]
        self.vars, self.assigned = {"v": ValueType.NUMBER}, {"v"}
        statements: list[Statement] = [
            Declare("region", region),
            *(Declare("object", name) for name in objects),
            Declare("var", "v", ValueType.NUMBER),
            Assign("v", None, self.number()),
            self.reassignment(),
        ]
        statements += [self.region_assignment(region) for _ in range(self.rng.randint(0, 2))]
        statements.append(Assert(self.assertion()))
        return Program(tuple(statements))

    # ------------------------------------------------------------------

    def program(self) -> Program:
        statements: list[Statement] = []
        for _ in range(self.rng.randint(1, 3)):
            name = self.fresh("obj")
            self.objects.append(name)
            statements.append(Declare("object", name))
        for _ in range(self.rng.randint(0, 2)):
            name = self.fresh("room")
            self.regions.append(name)
            statements.append(Declare("region", name))
        for _ in range(self.rng.randint(0, 3)):
            var_type = self.rng.choice(
                (
                    ValueType.NUMBER,
                    ValueType.DEGREE,
                    ValueType.BOOL,
                    ValueType.VECTOR3,
                    ValueType.ROTATION,
                    ValueType.COLOR,
                    ValueType.MATERIAL,
                )
            )
            name = self.fresh("v")
            self.vars[name] = var_type
            statements.append(Declare("var", name, var_type))

        for _ in range(self.rng.randint(1, 6)):
            roll = self.rng.random()
            if roll < 0.5:
                statements.append(Assert(self.assertion()))
            elif roll < 0.8:
                assign = self.assignment()
                if assign is not None:
                    statements.append(assign)
            elif roll < 0.9 and len(self.objects) >= 2:
                first, second = self.rng.sample(self.objects, 2)
                statements.append(AllowCollide(first, second))
            elif self.objects:
                statements.append(AllowOutside(self.rng.choice(self.objects)))
        # Reading a variable that is never assigned is a type error, so each
        # variable left unassigned gets a fixed value; drawing nothing for it
        # leaves the generator's stream as it was.
        assigned = {s.target for s in statements if isinstance(s, Assign) and s.prop is None}
        for name, var_type in self.vars.items():
            if name not in assigned:
                statements.append(Assign(name, None, _fixed_value(name, var_type)))
        return Program(tuple(statements))


def _fixed_value(name: str, var_type: ValueType) -> Expr:
    one, zero = NumberLit(1.0), NumberLit(0.0)
    if var_type is ValueType.VECTOR3:
        return Vec3(one, one, one)
    if var_type is ValueType.ROTATION:
        return Rot(zero, zero, zero)
    if var_type in (ValueType.COLOR, ValueType.MATERIAL):
        return StringLit("red")
    if var_type is ValueType.BOOL:
        return Name(name)  # only a Bool variable is assignable to one
    return one


def random_program(rng: random.Random) -> Program:
    return ProgramGenerator(rng).program()

"""Immutable symbolic expression tree.

Expressions are small, hashable, structurally-compared objects.  They carry no
shape information; arrays enter the picture only through the IR, where tasklet
connector names appear as plain :class:`Sym` leaves.

Supported node kinds:

* :class:`Const` - numeric (or boolean) literal
* :class:`Sym` - free symbol (connector name, loop index, size parameter)
* :class:`BinOp` - ``+ - * / // % ** @`` (``@`` only appears transiently in
  the frontend before matmul extraction)
* :class:`UnOp` - unary ``-`` and ``not``
* :class:`Call` - intrinsic function call (``sin``, ``exp``, ``maximum``, ...)
* :class:`Compare` - ``< <= > >= == !=``
* :class:`BoolOp` - ``and`` / ``or``
* :class:`IfExp` - ternary ``a if cond else b`` (used for ``where``/``relu``)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

Number = Union[int, float, bool]

#: Functions the symbolic engine understands.  Each maps to a NumPy callable
#: during code emission / evaluation.  ``erf`` lives in scipy.special and is
#: handled specially by the emitter.
KNOWN_FUNCTIONS = {
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "abs",
    "sign",
    "floor",
    "ceil",
    "maximum",
    "minimum",
    "erf",
    "relu",
}


class Expr:
    """Base class for all symbolic expressions.

    Operator overloads build new expression nodes, so expressions compose
    naturally: ``Sym('x') * 2 + Sym('y')``.
    """

    __slots__ = ()

    # Expressions are immutable; copying can safely return the same object.
    # (This also sidesteps deepcopy's setattr path, which frozen slotted
    # dataclasses reject.)
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    # Pickle via the constructor for the same reason: the default slot-state
    # protocol restores fields with setattr, which frozen dataclasses reject.
    # (The compilation cache's disk persistence pickles SDFGs.)
    def __reduce__(self):
        import dataclasses

        return (
            type(self),
            tuple(getattr(self, f.name) for f in dataclasses.fields(self)),
        )

    # -- construction helpers -------------------------------------------------
    def _binop(self, op: str, other: object, reflected: bool = False) -> "BinOp":
        other_expr = as_expr(other)
        if reflected:
            return BinOp(op, other_expr, self)
        return BinOp(op, self, other_expr)

    def __add__(self, other: object) -> "BinOp":
        return self._binop("+", other)

    def __radd__(self, other: object) -> "BinOp":
        return self._binop("+", other, reflected=True)

    def __sub__(self, other: object) -> "BinOp":
        return self._binop("-", other)

    def __rsub__(self, other: object) -> "BinOp":
        return self._binop("-", other, reflected=True)

    def __mul__(self, other: object) -> "BinOp":
        return self._binop("*", other)

    def __rmul__(self, other: object) -> "BinOp":
        return self._binop("*", other, reflected=True)

    def __truediv__(self, other: object) -> "BinOp":
        return self._binop("/", other)

    def __rtruediv__(self, other: object) -> "BinOp":
        return self._binop("/", other, reflected=True)

    def __floordiv__(self, other: object) -> "BinOp":
        return self._binop("//", other)

    def __rfloordiv__(self, other: object) -> "BinOp":
        return self._binop("//", other, reflected=True)

    def __mod__(self, other: object) -> "BinOp":
        return self._binop("%", other)

    def __rmod__(self, other: object) -> "BinOp":
        return self._binop("%", other, reflected=True)

    def __pow__(self, other: object) -> "BinOp":
        return self._binop("**", other)

    def __rpow__(self, other: object) -> "BinOp":
        return self._binop("**", other, reflected=True)

    def __neg__(self) -> "UnOp":
        return UnOp("-", self)

    def __pos__(self) -> "Expr":
        return self

    # ``eq`` builds a Compare node instead of a boolean; ``a == b`` is the
    # structural equality the dataclasses below provide.

    def eq(self, other: object) -> "Compare":
        return Compare("==", self, as_expr(other))

    # -- traversal ------------------------------------------------------------
    @property
    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def free_symbols(self) -> set[str]:
        return {node.name for node in self.walk() if isinstance(node, Sym)}

    def contains_symbol(self, name: str) -> bool:
        return any(isinstance(node, Sym) and node.name == name for node in self.walk())


@dataclass(frozen=True, eq=True)
class Const(Expr):
    """Numeric literal."""

    value: Number

    __slots__ = ("value",)

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __hash__(self) -> int:
        return hash(("Const", self.value))


@dataclass(frozen=True, eq=True)
class Sym(Expr):
    """Free symbol (loop index, size parameter or tasklet connector)."""

    name: str

    __slots__ = ("name",)

    def __repr__(self) -> str:
        return f"Sym({self.name!r})"

    def __hash__(self) -> int:
        return hash(("Sym", self.name))


@dataclass(frozen=True, eq=True)
class BinOp(Expr):
    """Binary arithmetic operation."""

    op: str
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, self.left, self.right))


@dataclass(frozen=True, eq=True)
class UnOp(Expr):
    """Unary operation (negation or logical not)."""

    op: str
    operand: Expr

    __slots__ = ("op", "operand")

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnOp({self.op!r}, {self.operand!r})"

    def __hash__(self) -> int:
        return hash(("UnOp", self.op, self.operand))


@dataclass(frozen=True, eq=True)
class Call(Expr):
    """Intrinsic function call."""

    func: str
    args: tuple[Expr, ...]

    __slots__ = ("func", "args")

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"Call({self.func!r}, {list(self.args)!r})"

    def __hash__(self) -> int:
        return hash(("Call", self.func, self.args))


@dataclass(frozen=True, eq=True)
class Compare(Expr):
    """Comparison producing a boolean value."""

    op: str
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"Compare({self.op!r}, {self.left!r}, {self.right!r})"

    def __hash__(self) -> int:
        return hash(("Compare", self.op, self.left, self.right))


@dataclass(frozen=True, eq=True)
class BoolOp(Expr):
    """Logical conjunction / disjunction of boolean expressions."""

    op: str  # 'and' | 'or'
    values: tuple[Expr, ...]

    __slots__ = ("op", "values")

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.values

    def __repr__(self) -> str:
        return f"BoolOp({self.op!r}, {list(self.values)!r})"

    def __hash__(self) -> int:
        return hash(("BoolOp", self.op, self.values))


@dataclass(frozen=True, eq=True)
class IfExp(Expr):
    """Ternary expression; used to express ``where`` and ``relu`` symbolically."""

    condition: Expr
    then: Expr
    otherwise: Expr

    __slots__ = ("condition", "then", "otherwise")

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.condition, self.then, self.otherwise)

    def __repr__(self) -> str:
        return f"IfExp({self.condition!r}, {self.then!r}, {self.otherwise!r})"

    def __hash__(self) -> int:
        return hash(("IfExp", self.condition, self.then, self.otherwise))


def as_expr(value: object) -> Expr:
    """Coerce a Python number, string or expression into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(value)
    if isinstance(value, (int, float)):
        return Const(value)
    if isinstance(value, str):
        from repro.symbolic.parser import parse_expr

        return parse_expr(value)
    import numpy as _np

    if isinstance(value, (_np.integer, _np.floating)):
        return Const(value.item())
    raise TypeError(f"Cannot convert {value!r} to a symbolic expression")


def symbols(names: str | Iterable[str]) -> list[Sym]:
    """Create several symbols at once: ``symbols('i j k')``."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return [Sym(name) for name in names]


def free_symbols(value: object) -> set[str]:
    """Free symbols of an expression, or the empty set for plain numbers."""
    if isinstance(value, Expr):
        return value.free_symbols()
    return set()

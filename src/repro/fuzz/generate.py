"""Seeded random program generator over the frontend's supported subset.

:class:`ProgramGenerator` draws well-typed :class:`~repro.fuzz.grammar.
FuzzProgram` trees from a weighted grammar: element-wise expression maps,
stencil-offset slice combines, partial-window writes into zero-initialised
scratch arrays (the NPBench ``hdiff`` idiom), axis reductions with
``keepdims``, matmul/transpose/relu/softmax compositions, ``for range``
loops (scalar accumulation, Gauss-Seidel recurrences, per-row updates) and
scalar-condition branches — in both symbol-condition (``N > 7``,
vmap-compatible) and data-condition (``np.sum(a) > c``) flavours.

Two invariants make every draw a usable differential case:

* **Well-typed by construction.** The generator tracks a name→shape
  environment and only emits operations whose operand shapes agree;
  :func:`~repro.fuzz.grammar.rebuild_shapes` re-derives every annotation
  afterwards as a cross-check (a ``ValueError`` there is a generator bug,
  not a finding).
* **Numerically tame.** Input data is positive and O(1) (see
  ``CaseSpec.make_data``) and the generator guards the partial operations:
  ``log``/``sqrt`` operands are wrapped ``abs(x) + c``, denominators are
  ``abs(x) + 0.6``, ``**`` only sees positive bases with small constant
  exponents, and ``exp`` only sees bounded (``tanh``-squashed or
  row-max-subtracted) operands.  Divergences are therefore real compiler
  bugs, not conditioning artefacts.

Determinism: one ``random.Random(seed)`` stream drives everything, and each
program additionally records its own ``data_seed``, so
``ProgramGenerator(seed).generate(n)`` is fully reproducible from the seed
alone — which is how corpus entries name the run that found them.

:func:`hard_templates` returns the hand-built seed programs covering the
known hard shapes from the ROADMAP (partial-window stencil writes, stencil
cascades, control flow between producer and consumer, shared-operand fusion
chains, sequential loop recurrences, the matmul→relu→softmax ML block).
``generate()`` emits these first so every fuzz run — including the CI smoke
run — always covers them.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.fuzz.grammar import (
    ArgSpec,
    Bin,
    Cmp,
    ExprNode,
    FuzzProgram,
    IndexItem,
    Lit,
    MatMul,
    Reduce,
    Ref,
    SAssign,
    SFor,
    SIf,
    Shape,
    SliceItem,
    SliceRead,
    SReturn,
    SSliceWrite,
    StmtNode,
    Transpose,
    Un,
    Where,
    Zeros,
    dim,
    rebuild_shapes,
    window_shape,
)

#: Unary functions that are safe on any real operand.
_SAFE_UNARY = ("sin", "cos", "tanh", "abs")


def _lit(rng: random.Random) -> Lit:
    return Lit(round(rng.uniform(0.2, 1.8), 3))


def _positive(expr: ExprNode, rng: random.Random) -> ExprNode:
    """Wrap an arbitrary expression so it is strictly positive."""
    return Bin("+", Un("abs", expr), Lit(round(rng.uniform(0.3, 0.9), 3)))


class _Scope:
    """Name→shape environment for one program being generated."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.env: dict[str, Shape] = {}
        self.scalars: list[str] = []
        self.arg_symbols: list[str] = []
        self.counter = 0
        self.loop_counter = 0

    def add(self, name: str, shape: Shape) -> None:
        self.env[name] = shape
        if shape == ():
            self.scalars.append(name)

    def fresh(self, prefix: str = "t") -> str:
        self.counter += 1
        return f"{prefix}{self.counter - 1}"

    def fresh_loop_var(self) -> str:
        self.loop_counter += 1
        return f"i{self.loop_counter - 1}"

    def arrays(self, rank: Optional[int] = None) -> list[str]:
        return [
            name for name, shape in self.env.items()
            if shape != () and (rank is None or len(shape) == rank)
        ]

    def arrays_with_shape(self, shape: Shape) -> list[str]:
        return [name for name, their in self.env.items()
                if their == shape and shape != ()]

    def some_shape(self) -> Shape:
        choices = [shape for shape in self.env.values() if shape != ()]
        return self.rng.choice(choices)


class ProgramGenerator:
    """Draw reproducible random programs from the fuzz grammar.

    ``generate(count)`` yields the :func:`hard_templates` seeds first, then
    ``count - len(templates)`` random programs; every program's name embeds
    the generator seed and its index, and its ``data_seed`` pins the input
    data — see :doc:`/docs/fuzzing` for how to replay one by hand.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self._index = 0

    # ------------------------------------------------------------- top level
    def generate(self, count: int, include_templates: bool = True,
                 ) -> list[FuzzProgram]:
        programs: list[FuzzProgram] = []
        if include_templates:
            programs.extend(hard_templates())
        while len(programs) < count:
            programs.append(self.random_program())
        return programs[:count]

    def random_program(self) -> FuzzProgram:
        index = self._index
        self._index += 1
        rng = random.Random(self.seed * 1_000_003 + index)
        name = f"fuzz_s{self.seed}_p{index}"
        dtype = "float64" if rng.random() < 0.8 else "float32"
        symbols = {"N": rng.randint(5, 9), "M": rng.randint(4, 8)}
        scope = _Scope(rng)

        args = self._make_args(rng, scope)
        body: list[StmtNode] = []

        productions = [
            (self._p_elementwise, 5),
            (self._p_stencil, 3),
            (self._p_partial_window, 2),
            (self._p_reduce, 2),
            (self._p_matmul, 2),
            (self._p_shared_operand, 2),
            (self._p_loop, 2),
            (self._p_branch, 2),
        ]
        weights = [weight for _, weight in productions]
        for _ in range(rng.randint(3, 7)):
            production = rng.choices(
                [fn for fn, _ in productions], weights=weights
            )[0]
            stmts = production(rng, scope)
            body.extend(stmts)

        body.append(SReturn(self._return_expr(rng, scope, args)))

        program = FuzzProgram(
            name=name, dtype=dtype, args=args, symbols=symbols, body=body,
            data_seed=rng.randrange(2**31),
        )
        rebuild_shapes(program)  # cross-check: a ValueError here is our bug
        return program

    # ------------------------------------------------------------- arguments
    def _make_args(self, rng: random.Random, scope: _Scope) -> list[ArgSpec]:
        shape_menu: list[Shape] = [
            (dim("N"),),
            (dim("M"),),
            (dim("N"), dim("M")),
            (dim("M"), dim("N")),
        ]
        args: list[ArgSpec] = []
        for position in range(rng.randint(1, 3)):
            shape = rng.choice(shape_menu)
            name = f"a{position}"
            args.append(ArgSpec(name, shape))
            scope.add(name, shape)
        if rng.random() < 0.5:
            args.append(ArgSpec("c", ()))
            scope.add("c", ())
        # Only symbols appearing in argument annotations exist frontend-side.
        scope.arg_symbols = sorted({
            base for arg in args for base, _ in arg.shape if base is not None
        })
        return args

    # ----------------------------------------------------------- expressions
    def _expr(self, rng: random.Random, scope: _Scope, shape: Shape,
              depth: int) -> ExprNode:
        """A random expression of the given shape (scalars broadcast in)."""
        same = scope.arrays_with_shape(shape)
        if depth <= 0 or (rng.random() < 0.3 and same):
            if same and rng.random() < 0.75:
                return Ref(rng.choice(same))
            if scope.scalars and rng.random() < 0.5:
                return Ref(rng.choice(scope.scalars))
            return _lit(rng)
        roll = rng.random()
        if roll < 0.30:
            fn = rng.choice(_SAFE_UNARY)
            return Un(fn, self._expr(rng, scope, shape, depth - 1))
        if roll < 0.38:  # guarded partial unaries
            inner = self._expr(rng, scope, shape, depth - 1)
            fn = rng.choice(("log", "sqrt", "exp"))
            if fn == "exp":  # bounded operand: tanh in [-1, 1]
                return Un("exp", Un("tanh", inner))
            return Un(fn, _positive(inner, rng))
        if roll < 0.80:
            op = rng.choice(("+", "-", "*", "maximum", "minimum", "/", "**"))
            a = self._expr(rng, scope, shape, depth - 1)
            if op == "/":
                return Bin("/", a, _positive(
                    self._expr(rng, scope, shape, depth - 1), rng))
            if op == "**":
                base = _positive(self._expr(rng, scope, shape, depth - 1), rng)
                return Bin("**", base, Lit(rng.choice((2.0, 1.5, 3.0))))
            b = self._expr(rng, scope, shape, depth - 1)
            return Bin(op, a, b)
        if roll < 0.90:
            cond = Cmp(rng.choice(("<", "<=", ">", ">=")),
                       self._expr(rng, scope, shape, depth - 1),
                       self._expr(rng, scope, shape, depth - 1))
            return Where(cond,
                         self._expr(rng, scope, shape, depth - 1),
                         self._expr(rng, scope, shape, depth - 1))
        return Un("-", self._expr(rng, scope, shape, depth - 1))

    def _shaped_expr(self, rng: random.Random, scope: _Scope, shape: Shape,
                     depth: int) -> ExprNode:
        """An expression of *exactly* the given shape.

        ``_expr`` alone only promises broadcast-compatibility (a draw can
        bottom out in a scalar literal); anchoring one operand on a live
        array of the target shape pins the result rank, so productions can
        record the target's shape in the scope truthfully.
        """
        if shape == ():
            return self._scalar_expr(rng, scope)
        anchor = Ref(rng.choice(scope.arrays_with_shape(shape)))
        rest = self._expr(rng, scope, shape, depth - 1)
        return Bin(rng.choice(("+", "-", "*", "maximum", "minimum")),
                   anchor, rest)

    def _scalar_expr(self, rng: random.Random, scope: _Scope) -> ExprNode:
        """A scalar expression (reductions over live arrays, scalars, lits)."""
        choices: list[ExprNode] = [_lit(rng)]
        for name in scope.scalars:
            choices.append(Ref(name))
        arrays = scope.arrays()
        if arrays:
            choices.append(Reduce(rng.choice(("sum", "mean")),
                                  Ref(rng.choice(arrays))))
        picked = rng.sample(choices, k=min(len(choices), 2))
        if len(picked) == 1:
            return picked[0]
        return Bin(rng.choice(("+", "*")), picked[0], picked[1])

    # ----------------------------------------------------------- productions
    def _p_elementwise(self, rng: random.Random, scope: _Scope,
                       ) -> list[StmtNode]:
        shape = scope.some_shape()
        target = scope.fresh()
        stmt = SAssign(target, self._shaped_expr(rng, scope, shape, depth=3))
        scope.add(target, shape)
        return [stmt]

    def _p_stencil(self, rng: random.Random, scope: _Scope) -> list[StmtNode]:
        """Combine shifted windows of one array: ``t = f(A[:-2], A[1:-1], ...)``."""
        candidates = [
            name for name in scope.arrays(rank=1)
            if scope.env[name][0][0] is not None
            and scope.env[name][0][1] >= -2
        ]
        if not candidates:
            return self._p_elementwise(rng, scope)
        source = rng.choice(candidates)
        trim = rng.choice((1, 2))
        reads = [
            SliceRead(source, (SliceItem(lo, lo - trim if lo < trim else 0),))
            for lo in range(trim + 1)
        ]
        expr: ExprNode = reads[0]
        for read in reads[1:]:
            expr = Bin(rng.choice(("+", "-", "*")), expr,
                       Bin("*", _lit(rng), read))
        target = scope.fresh()
        out_shape = window_shape(scope.env[source], reads[0].items)
        stmt = SAssign(target, expr)
        scope.add(target, out_shape)
        return [stmt]

    def _p_partial_window(self, rng: random.Random, scope: _Scope,
                          ) -> list[StmtNode]:
        """The hdiff idiom: zeros scratch + interior sub-window write."""
        candidates = [
            name for name in scope.arrays()
            if all(base is not None and offset >= 0
                   for base, offset in scope.env[name])
        ]
        if not candidates:
            return self._p_elementwise(rng, scope)
        source = rng.choice(candidates)
        shape = scope.env[source]
        target = scope.fresh()
        items = tuple(SliceItem(1, -1) for _ in shape)
        value = Bin("*", _lit(rng), SliceRead(source, items))
        stmts: list[StmtNode] = [
            SAssign(target, Zeros(shape=shape)),
            SSliceWrite(target, items, value,
                        accumulate=rng.random() < 0.3),
        ]
        scope.add(target, shape)
        # Consume the scratch immediately so fusion sees a producer chain.
        consumer = scope.fresh()
        stmts.append(SAssign(consumer, Bin("+", Ref(target), Ref(source))))
        scope.add(consumer, shape)
        return stmts

    def _p_reduce(self, rng: random.Random, scope: _Scope) -> list[StmtNode]:
        arrays = scope.arrays()
        if not arrays:
            return self._p_elementwise(rng, scope)
        source = rng.choice(arrays)
        shape = scope.env[source]
        fn = rng.choice(("sum", "mean", "max", "min"))
        target = scope.fresh("s")
        if len(shape) == 2 and rng.random() < 0.6:
            axis = rng.choice((0, 1))
            if rng.random() < 0.6:
                # keepdims normalisation: t = A / (|reduce(A, axis)| + c)
                red = Reduce(fn, Ref(source), axis=axis, keepdims=True)
                stmt = SAssign(target, Bin("/", Ref(source),
                                           _positive(red, rng)))
                scope.add(target, shape)
            else:
                stmt = SAssign(target, Reduce(fn, Ref(source), axis=axis))
                scope.add(target, (shape[1 - axis],))
            return [stmt]
        stmt = SAssign(target, Reduce(fn, Ref(source)))
        scope.add(target, ())
        return [stmt]

    def _p_matmul(self, rng: random.Random, scope: _Scope) -> list[StmtNode]:
        """Matmul / transpose chains, optionally through relu."""
        twod = scope.arrays(rank=2)
        if not twod:
            return self._p_elementwise(rng, scope)
        left = rng.choice(twod)
        lshape = scope.env[left]
        a: ExprNode = Ref(left)
        # Pick a right operand whose leading dim matches our trailing dim.
        rights: list[tuple[ExprNode, Shape]] = []
        for name in scope.arrays():
            shape = scope.env[name]
            if len(shape) == 1 and shape[0] == lshape[1]:
                rights.append((Ref(name), ()))
            elif len(shape) == 2 and shape[0] == lshape[1]:
                rights.append((Ref(name), (shape[1],)))
            elif len(shape) == 2 and shape[1] == lshape[1]:
                rights.append((Transpose(Ref(name)), (shape[0],)))
        if not rights:
            rights.append((Transpose(a), (lshape[0],)))
        b, tail = rng.choice(rights)
        out_shape = (lshape[0],) + tail
        expr: ExprNode = MatMul(a, b)
        if rng.random() < 0.5:  # relu
            expr = Bin("maximum", expr, Lit(0.0))
        target = scope.fresh("m")
        stmt = SAssign(target, expr)
        scope.add(target, out_shape)
        return [stmt]

    def _p_shared_operand(self, rng: random.Random, scope: _Scope,
                          ) -> list[StmtNode]:
        """One producer feeding two consumers (fusion-decision stress)."""
        shape = scope.some_shape()
        producer = scope.fresh()
        stmts: list[StmtNode] = [
            SAssign(producer, Un(rng.choice(_SAFE_UNARY),
                                 self._shaped_expr(rng, scope, shape, depth=2)))
        ]
        scope.add(producer, shape)
        for _ in range(2):
            consumer = scope.fresh()
            stmts.append(SAssign(consumer, Bin(
                rng.choice(("+", "*")), Ref(producer),
                self._expr(rng, scope, shape, depth=1))))
            scope.add(consumer, shape)
        return stmts

    def _p_loop(self, rng: random.Random, scope: _Scope) -> list[StmtNode]:
        roll = rng.random()
        if roll < 0.45:
            # Scalar accumulation over a fixed trip count.
            acc = scope.fresh("acc")
            var = scope.fresh_loop_var()
            seed_stmt = SAssign(acc, self._scalar_expr(rng, scope))
            scope.add(acc, ())
            body: list[StmtNode] = [SAssign(acc, Bin(
                "+", Bin("*", Ref(acc), Lit(round(rng.uniform(0.4, 0.9), 3))),
                self._scalar_expr(rng, scope)))]
            return [seed_stmt, SFor(var, 0, rng.randint(2, 4), body)]
        if roll < 0.75:
            # Gauss-Seidel-style sequential recurrence over a 1-D array.
            candidates = [
                name for name in scope.arrays(rank=1)
                if scope.env[name][0][0] is not None
                and scope.env[name][0][1] == 0
            ]
            if not candidates:
                return self._p_elementwise(rng, scope)
            array = rng.choice(candidates)
            symbol = scope.env[array][0][0]
            var = scope.fresh_loop_var()
            body = [SSliceWrite(
                array, (IndexItem(var),),
                Bin("+",
                    Bin("*", SliceRead(array, (IndexItem(f"{var} - 1"),)),
                        Lit(round(rng.uniform(0.3, 0.7), 3))),
                    Bin("*", SliceRead(array, (IndexItem(var),)),
                        Lit(round(rng.uniform(0.3, 0.6), 3)))),
            )]
            return [SFor(var, 1, symbol, body)]
        # Per-row update of a 2-D array.
        candidates = [
            name for name in scope.arrays(rank=2)
            if scope.env[name][0][0] is not None
            and scope.env[name][0][1] == 0
        ]
        if not candidates:
            return self._p_elementwise(rng, scope)
        array = rng.choice(candidates)
        symbol = scope.env[array][0][0]
        var = scope.fresh_loop_var()
        row = (IndexItem(var), SliceItem())
        body = [SSliceWrite(
            array, row,
            Bin("+", Bin("*", SliceRead(array, row),
                         Lit(round(rng.uniform(0.5, 0.9), 3))),
                _lit(rng)),
        )]
        return [SFor(var, 0, symbol, body)]

    def _p_branch(self, rng: random.Random, scope: _Scope) -> list[StmtNode]:
        shape = scope.some_shape()
        target = scope.fresh()
        seed_stmt = SAssign(target, self._shaped_expr(rng, scope, shape, depth=2))
        scope.add(target, shape)
        if rng.random() < 0.5 and scope.arg_symbols:
            # Symbol condition: resolvable at specialisation time, so this
            # stays vmap-compatible.
            cond = Cmp(rng.choice((">", "<=")),
                       Ref(rng.choice(scope.arg_symbols)),
                       Lit(rng.randint(5, 8)))
        else:
            # Data condition: materialised scalar, expected to be declined
            # (skip) under vmap.
            arrays = scope.arrays()
            source = rng.choice(arrays) if arrays else target
            cond = Cmp(rng.choice((">", "<")),
                       Reduce("mean", Ref(source)),
                       Lit(round(rng.uniform(0.6, 1.1), 3)))
        then_body: list[StmtNode] = [SAssign(
            target, Bin("*", Ref(target), Lit(round(rng.uniform(1.1, 1.6), 3))))]
        else_body: list[StmtNode] = [SAssign(
            target, Bin("+", Ref(target), _lit(rng)))]
        return [seed_stmt, SIf(cond, then_body, else_body)]

    # ---------------------------------------------------------------- return
    def _return_expr(self, rng: random.Random, scope: _Scope,
                     args: list[ArgSpec]) -> ExprNode:
        """A scalar combining every argument and most temporaries.

        Touching every array argument keeps all ``wrt`` gradients non-trivial;
        folding in the temporaries keeps dead-code elimination honest.
        """
        terms: list[ExprNode] = []
        for arg in args:
            if arg.is_array:
                terms.append(Reduce("sum", Ref(arg.name)))
            else:
                terms.append(Ref(arg.name))
        extras = [name for name in scope.env
                  if name not in {arg.name for arg in args}]
        rng.shuffle(extras)
        for name in extras[:4]:
            shape = scope.env[name]
            ref: ExprNode = Ref(name)
            terms.append(ref if shape == () else Reduce("sum", ref))
        expr: ExprNode = Bin("*", _lit(rng), terms[0])
        for term in terms[1:]:
            expr = Bin("+", expr, Bin("*", _lit(rng), term))
        return expr


# ------------------------------------------------------------ hard templates
def _template(name: str, dtype: str, args: list[ArgSpec],
              symbols: dict[str, int], body: list[StmtNode],
              data_seed: int) -> FuzzProgram:
    program = FuzzProgram(name=name, dtype=dtype, args=args, symbols=symbols,
                          body=body, data_seed=data_seed)
    rebuild_shapes(program)
    return program


def hard_templates() -> list[FuzzProgram]:
    """Hand-built seeds for the known hard shapes (always fuzzed first)."""
    programs: list[FuzzProgram] = []
    N, M = dim("N"), dim("M")

    # 1. Partial-window stencil write (NPBench hdiff idiom): interior
    #    sub-window of a zeros scratch array; must stay unfused-but-correct.
    interior = (SliceItem(1, -1), SliceItem(1, -1))
    lap_value = Bin(
        "-",
        Bin("+",
            Bin("+", SliceRead("a", (SliceItem(2, 0), SliceItem(1, -1))),
                SliceRead("a", (SliceItem(0, -2), SliceItem(1, -1)))),
            Bin("+", SliceRead("a", (SliceItem(1, -1), SliceItem(2, 0))),
                SliceRead("a", (SliceItem(1, -1), SliceItem(0, -2))))),
        Bin("*", Lit(4.0), SliceRead("a", interior)),
    )
    programs.append(_template(
        "seed_hdiff_partial_window", "float64",
        [ArgSpec("a", (N, M))], {"N": 7, "M": 6},
        [
            SAssign("lap", Zeros(shape=(N, M))),
            SSliceWrite("lap", interior, lap_value),
            SAssign("out", Bin("*", Ref("lap"), Ref("a"))),
            SReturn(Bin("+", Reduce("sum", Ref("out")),
                        Bin("*", Lit(0.1), Reduce("sum", Ref("a"))))),
        ],
        data_seed=101,
    ))

    # 2. Stencil cascade: two chained 3-point smoothers (O3 fusion stress).
    def smooth(source: str) -> ExprNode:
        return Bin("*", Lit(0.25), Bin(
            "+", Bin("+", SliceRead(source, (SliceItem(2, 0),)),
                     Bin("*", Lit(2.0), SliceRead(source, (SliceItem(1, -1),)))),
            SliceRead(source, (SliceItem(0, -2),))))

    programs.append(_template(
        "seed_smooth_chain", "float64",
        [ArgSpec("a", (N,))], {"N": 9, "M": 4},
        [
            SAssign("b", smooth("a")),
            SAssign("d", smooth("b")),
            SReturn(Bin("+", Reduce("sum", Ref("d")),
                        Bin("*", Lit(0.1), Reduce("sum", Ref("a"))))),
        ],
        data_seed=102,
    ))

    # 3. Control flow between producer and consumer (cross-state fusion
    #    guards): a symbol-condition branch rebinding the intermediate.
    programs.append(_template(
        "seed_branch_between_producer_consumer", "float64",
        [ArgSpec("a", (N,))], {"N": 8, "M": 4},
        [
            SAssign("t", Un("exp", Un("tanh", Ref("a")))),
            SIf(Cmp(">", Ref("N"), Lit(6)),
                [SAssign("t", Bin("*", Ref("t"), Lit(2.0)))],
                [SAssign("t", Bin("+", Ref("t"), Lit(0.5)))]),
            SAssign("v", Bin("*", Ref("t"), Ref("a"))),
            SReturn(Reduce("sum", Ref("v"))),
        ],
        data_seed=103,
    ))

    # 4. Data-dependent branch: legal forward/grad, expected skip under vmap.
    programs.append(_template(
        "seed_data_branch", "float64",
        [ArgSpec("a", (N,))], {"N": 6, "M": 4},
        [
            SAssign("t", Un("sin", Ref("a"))),
            SIf(Cmp(">", Reduce("mean", Ref("a")), Lit(0.85)),
                [SAssign("t", Bin("*", Ref("t"), Lit(1.5)))],
                [SAssign("t", Bin("-", Ref("t"), Lit(0.25)))]),
            SReturn(Bin("+", Reduce("sum", Ref("t")),
                        Reduce("sum", Ref("a")))),
        ],
        data_seed=104,
    ))

    # 5. Shared-operand fusion chain: one producer, two consumers.
    programs.append(_template(
        "seed_shared_operand_chain", "float64",
        [ArgSpec("a", (N,)), ArgSpec("b", (N,))], {"N": 7, "M": 4},
        [
            SAssign("t", Un("sin", Ref("a"))),
            SAssign("p", Bin("*", Ref("t"), Ref("b"))),
            SAssign("q", Bin("+", Ref("t"), Ref("b"))),
            SReturn(Bin("+", Reduce("sum", Ref("p")),
                        Reduce("sum", Ref("q")))),
        ],
        data_seed=105,
    ))

    # 6. Sequential Gauss-Seidel recurrence writing through an input array.
    programs.append(_template(
        "seed_gauss_seidel", "float64",
        [ArgSpec("a", (N,))], {"N": 8, "M": 4},
        [
            SFor("i", 1, "N", [SSliceWrite(
                "a", (IndexItem("i"),),
                Bin("+",
                    Bin("*", SliceRead("a", (IndexItem("i - 1"),)), Lit(0.6)),
                    Bin("*", SliceRead("a", (IndexItem("i"),)), Lit(0.5))))]),
            SReturn(Reduce("sum", Ref("a"))),
        ],
        data_seed=106,
    ))

    # 7. Matmul → relu → row-softmax (the fig13 ML block shapes).
    programs.append(_template(
        "seed_matmul_relu_softmax", "float64",
        [ArgSpec("w", (N, M)), ArgSpec("v", (M, N))], {"N": 5, "M": 4},
        [
            SAssign("z", MatMul(Ref("w"), Ref("v"))),
            SAssign("r", Bin("maximum", Ref("z"), Lit(0.0))),
            SAssign("e", Un("exp", Bin(
                "-", Ref("r"), Reduce("max", Ref("r"), axis=1, keepdims=True)))),
            SAssign("p", Bin("/", Ref("e"),
                             Reduce("sum", Ref("e"), axis=1, keepdims=True))),
            SReturn(Bin("+", Reduce("sum", Bin("*", Ref("p"), Ref("r"))),
                        Bin("*", Lit(0.01), Reduce("sum", Ref("z"))))),
        ],
        data_seed=107,
    ))

    # 8. Transposed-operand matmul with a scalar argument in the epilogue.
    programs.append(_template(
        "seed_transpose_matmul_scalar", "float64",
        [ArgSpec("w", (N, M)), ArgSpec("x", (N,)), ArgSpec("c", ())],
        {"N": 6, "M": 5},
        [
            SAssign("y", MatMul(Transpose(Ref("w")), Ref("x"))),
            SAssign("t", Bin("*", Ref("y"), Ref("c"))),
            SReturn(Bin("+", Reduce("sum", Ref("t")),
                        Bin("*", Lit(0.1), Reduce("sum", Ref("w"))))),
        ],
        data_seed=108,
    ))

    # 9. Scalar loop accumulation (LoopRegion with scalar state).
    programs.append(_template(
        "seed_loop_accumulate", "float64",
        [ArgSpec("a", (M,))], {"N": 5, "M": 6},
        [
            SAssign("s", Reduce("sum", Ref("a"))),
            SAssign("acc", Lit(0.5)),
            SFor("k", 0, 3, [SAssign("acc", Bin(
                "+", Bin("*", Ref("acc"), Lit(0.5)),
                Bin("*", Ref("s"), Lit(0.25))))]),
            SReturn(Bin("+", Ref("acc"), Reduce("mean", Ref("a")))),
        ],
        data_seed=109,
    ))

    # 10. float32 pass through the full comparison (loosened tolerance path).
    programs.append(_template(
        "seed_float32_elementwise", "float32",
        [ArgSpec("a", (N,)), ArgSpec("b", (N,))], {"N": 7, "M": 4},
        [
            SAssign("t", Bin("+", Bin("*", Ref("a"), Ref("b")),
                             Un("cos", Ref("a")))),
            SReturn(Reduce("sum", Ref("t"))),
        ],
        data_seed=110,
    ))

    # 11. Row stencil inside a sequential loop: rows i - 1, i and i + 1 are
    #     read non-linearly and row i is overwritten, so the backward pass
    #     reads all three off one loop tape shaped like their bounding box.
    def row(term: str) -> SliceRead:
        return SliceRead("a", (IndexItem(term), SliceItem()))

    programs.append(_template(
        "seed_row_stencil_tape", "float64",
        [ArgSpec("a", (N, M))], {"N": 7, "M": 5},
        [
            SFor("i", 1, "N - 1", [SSliceWrite(
                "a", (IndexItem("i"), SliceItem()),
                Bin("+",
                    Bin("*", Bin("*", row("i - 1"), row("i + 1")), Lit(0.5)),
                    Un("sin", row("i"))))]),
            SReturn(Reduce("sum", Ref("a"))),
        ],
        data_seed=111,
    ))

    return programs


__all__ = ["ProgramGenerator", "hard_templates"]

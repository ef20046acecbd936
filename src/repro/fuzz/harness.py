"""The differential harness: run one program under many configurations and
cross-check every result against the jaxlike oracle.

A configuration is one point of the matrix

    {O0, O1, O2, O3} x {forward, grad, vmap, vmap_grad} x {numpy, cython}

optionally crossed with the call boundary (``--call-boundary`` re-runs every
configuration with its inputs in each of :data:`PRESENTATIONS` and compares
with the plain call of the same compiled program on the same values) and
with the requested gradients (``--wrt-subset`` re-runs every
``grad``/``vmap_grad`` configuration differentiating only a seeded strict
subset of the array arguments, against the oracle's gradient for the same
``argnums``).  Memory planning runs at O1–O3 and not at O0, so every
campaign also checks it.

For each configuration the program is compiled through the real pipeline
(:func:`repro.pipeline.compile_forward`, :class:`~repro.autodiff.api.
GradientFunction`, :func:`repro.vmap`) and executed on seeded random data;
the oracle value for the same mode is computed once by the loop-based
jaxlike baseline (``jaxlike.grad`` / ``jaxlike.vmap`` over the functional
rendering) and the two must agree to ``1e-9`` (float64) / ``1e-4``
(float32).

Outcomes are three-valued, and the distinction is the whole point:

* ``ok`` — compiled, ran, agreed (a recorded backend fallback still
  compares, it just notes the fallback reason);
* ``skip`` — the stack *declined* the configuration with a clear
  ``UnsupportedFeatureError`` / ``AutodiffError``; the reason is recorded so
  runs have zero silent coverage holes;
* ``fail`` — a divergence beyond tolerance or an unexpected exception.
  Failures carry enough context for the shrinker to reproduce them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.autodiff.api import GradientFunction
from repro.baselines import jaxlike
from repro.batching import vmap as repro_vmap
from repro.fuzz.grammar import ArgSpec, FuzzProgram, shape_value
from repro.fuzz.render import (
    build_oracle,
    build_sdfg,
    render_oracle_source,
    render_repro_source,
)
from repro.pipeline import CompilationCache, compile_forward
from repro.util.errors import ReproError, UnsupportedFeatureError

TIERS = ("O0", "O1", "O2", "O3")
MODES = ("forward", "grad", "vmap", "vmap_grad")
BACKENDS = ("numpy", "cython")
#: Forms in which ``--call-boundary`` hands a program its inputs.
PRESENTATIONS = ("strided", "fortran", "float32", "shuffled")

#: Absolute/relative tolerance per dtype (the paper-level bar for float64;
#: float32 gets the cross-backend differential suite's looser bound).
TOLERANCES = {"float64": 1e-9, "float32": 1e-4}

#: Exceptions that mean "this configuration is legitimately outside the
#: supported subset" — recorded as skips, never as failures.  AutodiffError
#: covers declared AD gaps (e.g. batched matmul against shared weights).
#: A native-backend decline is no skip: the pipeline falls back to numpy
#: and records it (``backend_fallback``).
SKIP_EXCEPTIONS: tuple = (UnsupportedFeatureError,)
try:  # AutodiffError is a declared limitation channel, not a crash.
    from repro.util.errors import AutodiffError

    SKIP_EXCEPTIONS = SKIP_EXCEPTIONS + (AutodiffError,)
except ImportError:  # pragma: no cover
    pass


@dataclass(frozen=True)
class Config:
    """One point of the differential matrix.

    ``presentation`` names one of :data:`PRESENTATIONS`; such a configuration
    is checked against its own plain call, not against the oracle.
    ``wrt`` names the arrays a gradient mode differentiates; ``None`` means
    every array argument.
    """

    tier: str
    mode: str
    backend: str
    presentation: Optional[str] = None
    wrt: Optional[tuple[str, ...]] = None

    def label(self) -> str:
        label = f"{self.tier}/{self.mode}/{self.backend}"
        if self.presentation is not None:
            label += f"/call-{self.presentation}"
        if self.wrt is not None:
            label += "/wrt-" + "+".join(self.wrt)
        return label


def full_matrix() -> tuple[Config, ...]:
    """Every configuration, in deterministic order."""
    return tuple(
        Config(tier, mode, backend)
        for tier in TIERS for mode in MODES for backend in BACKENDS
    )


@dataclass
class CaseOutcome:
    """Result of one (program, configuration) differential check."""

    program: str
    config: Config
    status: str  # "ok" | "skip" | "fail"
    reason: str = ""
    error_type: str = ""
    max_err: float = 0.0
    backend_fallback: Optional[str] = None

    def to_dict(self) -> dict:
        payload = {
            "program": self.program,
            "config": self.config.label(),
            "status": self.status,
        }
        if self.reason:
            payload["reason"] = self.reason
        if self.error_type:
            payload["error_type"] = self.error_type
        if self.backend_fallback:
            payload["backend_fallback"] = self.backend_fallback
        if self.status == "fail" and self.max_err:
            payload["max_err"] = self.max_err
        return payload


@dataclass
class CaseSpec:
    """Everything needed to replay one program differentially.

    Carries *rendered sources* rather than grammar trees, so corpus entries
    (JSON on disk) and freshly generated programs run through the exact same
    code path.
    """

    name: str
    dtype: str
    args: list[ArgSpec]
    symbols: dict[str, int]
    repro_source: str
    oracle_source: str
    data_seed: int = 0
    batch: int = 2
    atol: Optional[float] = None

    @classmethod
    def from_program(cls, program: FuzzProgram, batch: int = 2) -> "CaseSpec":
        return cls(
            name=program.name,
            dtype=program.dtype,
            args=list(program.args),
            symbols=dict(program.symbols),
            repro_source=render_repro_source(program),
            oracle_source=render_oracle_source(program),
            data_seed=program.data_seed,
            batch=batch,
        )

    @property
    def tolerance(self) -> float:
        return self.atol if self.atol is not None else TOLERANCES[self.dtype]

    def wrt(self) -> list[str]:
        return [arg.name for arg in self.args if arg.is_array]

    def make_data(self) -> dict[str, object]:
        """Seeded random inputs: positive, O(1) magnitudes, away from zero
        (so ``/``, ``log`` and ``sqrt`` operands built by the generator stay
        well-conditioned in both engines)."""
        rng = np.random.default_rng(self.data_seed)
        dtype = np.dtype(self.dtype)
        data: dict[str, object] = {}
        for arg in self.args:
            if arg.is_array:
                concrete = shape_value(arg.shape, self.symbols)
                data[arg.name] = (rng.random(concrete) + 0.35).astype(dtype)
            else:
                data[arg.name] = float(rng.random() + 0.5)
        return data

    def make_batched_data(self) -> dict[str, object]:
        """Per-sample-distinct stacked inputs for the vmap modes."""
        rng = np.random.default_rng(self.data_seed + 1)
        dtype = np.dtype(self.dtype)
        data: dict[str, object] = {}
        for arg in self.args:
            if arg.is_array:
                concrete = (self.batch,) + shape_value(arg.shape, self.symbols)
                data[arg.name] = (rng.random(concrete) + 0.35).astype(dtype)
            else:
                data[arg.name] = float(rng.random() + 0.5)
        return data

    def in_axes(self) -> dict[str, Optional[int]]:
        """Batch every array argument, broadcast scalars."""
        return {arg.name: 0 for arg in self.args if arg.is_array}

    def oracle_in_axes(self) -> tuple:
        return tuple(0 if arg.is_array else None for arg in self.args)


def _copy_data(data: dict[str, object]) -> dict[str, object]:
    return {k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
            for k, v in data.items()}


def present(data: dict[str, object], presentation: Optional[str], seed: int,
            ) -> tuple[dict[str, object], dict[str, object]]:
    """``(plain, presented)``: the same argument values as contiguous arrays
    of their own dtype, and in the named form at the call boundary (``None``:
    as they are)."""
    plain = _copy_data(data)
    presented = _copy_data(data)
    if presentation == "shuffled":
        names = list(presented)
        random.Random(seed).shuffle(names)
        return plain, {name: presented[name] for name in names}
    for name, value in list(presented.items()):
        if not isinstance(value, np.ndarray):
            continue
        if presentation == "strided" and value.ndim:
            wide = np.empty(value.shape[:-1] + (2 * value.shape[-1],), value.dtype)
            presented[name] = wide[..., ::2]
            presented[name][...] = value
        elif presentation == "fortran":
            presented[name] = np.asfortranarray(value)
        elif presentation == "float32":
            presented[name] = value.astype(np.float32)
            plain[name] = presented[name].astype(value.dtype)
    return plain, presented


def _to_numpy(value) -> np.ndarray:
    if isinstance(value, jaxlike.DeviceArray):
        return np.asarray(value.value)
    return np.asarray(value)


def _on_device(oracle: Callable) -> Callable:
    """``oracle`` with its plain array arguments wrapped as device arrays, so
    functional updates (``x.at[...]``) work and an argument ``grad`` does not
    differentiate still meets its operands as a device array; differentiated
    arguments already arrive wrapped."""
    def call(*args, **kwargs):
        return oracle(*[jaxlike.DeviceArray(v) if isinstance(v, np.ndarray) else v
                        for v in args], **kwargs)
    return call


def _first_line(exc: BaseException) -> str:
    text = str(exc).strip().splitlines()
    return text[0] if text else type(exc).__name__


class DifferentialRunner:
    """Runs one :class:`CaseSpec` across configurations against the oracle.

    The SDFG is lowered once (pipeline passes run on copies) and all
    configurations share one :class:`CompilationCache` instance — which
    doubles as an adversarial test of cache-key separation: a key collision
    between two configurations would surface as a divergence.
    """

    def __init__(self, spec: CaseSpec) -> None:
        self.spec = spec
        self.sdfg = build_sdfg(spec.repro_source, spec.args, spec.dtype, spec.name)
        self.oracle: Callable = build_oracle(spec.oracle_source)
        self.data = spec.make_data()
        self.batched_data = spec.make_batched_data()
        self.cache = CompilationCache(maxsize=256)
        self._oracle_values: dict[tuple, object] = {}

    # ---------------------------------------------------------- oracle side
    def _positional(self, data: dict[str, object]) -> list[object]:
        return [data[arg.name] for arg in self.spec.args]

    def oracle_value(self, mode: str, wrt: Optional[tuple[str, ...]] = None):
        """The jaxlike reference result for one mode and, for the gradient
        modes, one ``wrt`` (computed once)."""
        key = (mode, wrt)
        if key in self._oracle_values:
            return self._oracle_values[key]
        spec = self.spec
        kwargs = dict(spec.symbols)
        names = [name for name in spec.wrt() if wrt is None or name in wrt]
        wrt_idx = tuple(i for i, arg in enumerate(spec.args) if arg.name in names)
        if mode == "forward":
            out = _on_device(self.oracle)(*self._positional(_copy_data(self.data)), **kwargs)
            value = _to_numpy(out)
        elif mode == "grad":
            grads = jaxlike.grad(_on_device(self.oracle), argnums=wrt_idx)(
                *self._positional(_copy_data(self.data)), **kwargs
            )
            value = {name: _to_numpy(g) for name, g in zip(names, grads)}
        elif mode == "vmap":
            out = jaxlike.vmap(self.oracle, in_axes=spec.oracle_in_axes())(
                *self._positional(_copy_data(self.batched_data)), **kwargs
            )
            value = _to_numpy(out)
        elif mode == "vmap_grad":
            out = jaxlike.vmap(
                jaxlike.grad(_on_device(self.oracle), argnums=wrt_idx),
                in_axes=spec.oracle_in_axes(),
            )(*self._positional(_copy_data(self.batched_data)), **kwargs)
            stacked = out if isinstance(out, tuple) else (out,)
            value = {name: _to_numpy(g) for name, g in zip(names, stacked)}
        else:
            raise ValueError(f"Unknown mode {mode!r}")
        self._oracle_values[key] = value
        return value

    # ----------------------------------------------------------- repro side
    def _repro_value(self, config: Config, data: dict[str, object]):
        """Compile one configuration and run it on ``data`` (which the
        program may update in place); returns (value, fallback)."""
        spec = self.spec
        options = {
            "optimize": config.tier,
            "cache": self.cache,
            "backend": config.backend,
        }
        if config.mode == "forward":
            outcome = compile_forward(self.sdfg, **options)
            value = outcome.compiled(**data)
            return np.asarray(value), outcome.report.backend_fallback
        if config.mode == "vmap":
            batched = repro_vmap(self.sdfg, in_axes=spec.in_axes())
            compiled = batched.compile(**options)
            value = compiled(**data)
            fallback = getattr(compiled.pipeline_report, "backend_fallback", None)
            return np.asarray(value), fallback
        if config.mode in ("grad", "vmap_grad"):
            wrt = list(config.wrt) if config.wrt is not None else spec.wrt()
            gf = GradientFunction(self.sdfg, wrt=wrt, **options)
            if config.mode == "vmap_grad":
                gf = repro_vmap(gf, in_axes=spec.in_axes())
            raw = gf(**data)
            if not isinstance(raw, dict):
                raw = {wrt[0]: raw}
            return ({k: np.asarray(v) for k, v in raw.items()},
                    gf.report.backend_fallback)
        raise ValueError(f"Unknown mode {config.mode!r}")

    # ----------------------------------------------------------- comparison
    def _compare(self, actual, expected, tol: float) -> tuple[bool, float]:
        if isinstance(expected, dict):
            worst = 0.0
            for name, exp in expected.items():
                act = actual.get(name)
                if act is None:
                    return False, float("inf")
                ok, err = self._compare(act, exp, tol)
                worst = max(worst, err)
                if not ok:
                    return False, worst
            return True, worst
        actual = np.asarray(actual, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        if actual.shape != expected.shape:
            return False, float("inf")
        err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
        ok = bool(np.allclose(actual, expected, rtol=tol, atol=tol))
        return ok, err

    def run(self, config: Config) -> CaseOutcome:
        """One differential check; never raises for program-level problems."""
        spec = self.spec
        batched = config.mode in ("vmap", "vmap_grad")
        plain, presented = present(self.batched_data if batched else self.data,
                                   config.presentation, spec.data_seed)
        try:
            if config.presentation is None:
                expected = self.oracle_value(config.mode, config.wrt)
        except Exception as exc:  # noqa: BLE001 - oracle bugs are harness bugs
            return CaseOutcome(
                program=spec.name, config=config, status="fail",
                reason=f"oracle-error: {_first_line(exc)}",
                error_type=type(exc).__name__,
            )
        try:
            if config.presentation is not None:
                expected, _ = self._repro_value(config, plain)
            actual, fallback = self._repro_value(config, presented)
        except SKIP_EXCEPTIONS as exc:
            return CaseOutcome(
                program=spec.name, config=config, status="skip",
                reason=f"{type(exc).__name__}: {_first_line(exc)}",
                error_type=type(exc).__name__,
            )
        except ReproError as exc:
            return CaseOutcome(
                program=spec.name, config=config, status="fail",
                reason=f"compile-or-run-error: {_first_line(exc)}",
                error_type=type(exc).__name__,
            )
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            return CaseOutcome(
                program=spec.name, config=config, status="fail",
                reason=f"crash: {_first_line(exc)}",
                error_type=type(exc).__name__,
            )
        ok, err = self._compare(actual, expected, spec.tolerance)
        if not ok:
            return CaseOutcome(
                program=spec.name, config=config, status="fail",
                reason=f"divergence (max err {err:.3e} > {spec.tolerance:g})",
                error_type="Divergence", max_err=err,
                backend_fallback=fallback,
            )
        return CaseOutcome(
            program=spec.name, config=config, status="ok", max_err=err,
            backend_fallback=fallback,
        )


def run_case(spec: CaseSpec, configs: Optional[list[Config]] = None,
             ) -> list[CaseOutcome]:
    """Run one case spec over ``configs`` (default: the full matrix).

    Building the runner itself can raise for out-of-subset programs — e.g.
    hand-written corpus sources the frontend must *reject*; callers that
    expect that use :func:`build_sdfg` directly instead.
    """
    runner = DifferentialRunner(spec)
    return [runner.run(config) for config in configs or list(full_matrix())]


@dataclass
class FailureSignature:
    """What makes two failures 'the same bug' for shrinking purposes."""

    config: Config
    error_type: str

    @classmethod
    def of(cls, outcome: CaseOutcome) -> "FailureSignature":
        return cls(config=outcome.config, error_type=outcome.error_type)


def reproduces(program: FuzzProgram, signature: FailureSignature,
               batch: int = 2) -> bool:
    """Shrinker predicate: does ``program`` still fail the same way?

    Invalid candidates (shape errors, undefined names after an edit, or any
    exception while *building* the case) count as "does not reproduce".
    """
    try:
        spec = CaseSpec.from_program(program, batch=batch)
        runner = DifferentialRunner(spec)
        outcome = runner.run(signature.config)
    except Exception:  # noqa: BLE001 - invalid shrink candidate
        return False
    return outcome.status == "fail" and outcome.error_type == signature.error_type


__all__ = [
    "BACKENDS",
    "CaseOutcome",
    "CaseSpec",
    "Config",
    "DifferentialRunner",
    "FailureSignature",
    "MODES",
    "PRESENTATIONS",
    "SKIP_EXCEPTIONS",
    "TIERS",
    "TOLERANCES",
    "full_matrix",
    "reproduces",
    "run_case",
]

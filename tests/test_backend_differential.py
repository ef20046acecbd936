"""Cross-backend differential suite.

For every registered NPBench-style kernel, compile the same program through
the NumPy backend and the native ("cython") backend under both the O0 and O3
tiers and check the results agree — forward, gradient and vmapped forward.
The native backend is allowed to *decline* a program (it then falls back to
NumPy inside the pipeline); such cases are skipped with the recorded reason
rather than silently passing, so the report shows exactly which kernels
exercise the native path.

Float64 kernels must agree to 1e-9 (the paper-level bar); float32 kernels
get a looser 1e-4 because the C math library and NumPy's vectorised
intrinsics round differently in single precision.
"""

import numpy as np
import pytest

import repro
from repro.codegen.cython_backend import find_c_compiler
from repro.npbench import all_kernels
from repro.pipeline import compile_forward
from repro.util.errors import UnsupportedFeatureError

pytestmark = pytest.mark.skipif(
    find_c_compiler() is None,
    reason="cross-backend differential tests need a C compiler on PATH",
)

KERNELS = all_kernels()
KERNEL_NAMES = sorted(KERNELS)
TIERS = ["O0", "O3"]


def _atol(spec):
    return 1e-4 if spec.dtype == np.float32 else 1e-9


def _copy_data(data):
    return {k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
            for k, v in data.items()}


def _batched(data, arguments, batch=2):
    """Stack every container argument — arrays and scalars alike — along a
    new leading batch axis, as ``in_axes=0`` asks; symbols stay as given."""
    return {k: (np.stack([np.asarray(v)] * batch) if k in arguments else v)
            for k, v in data.items()}


def _skip_unless_native(report, what):
    """Skip (with the pipeline's recorded reason) when the native backend
    declined and the pipeline fell back to NumPy — a fallback comparison
    would trivially pass without testing anything."""
    if report.backend != "cython":
        reason = report.backend_fallback or f"backend={report.backend}"
        pytest.skip(f"native backend declined {what}: {reason}")


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_forward_agrees_across_backends(name, tier):
    spec = KERNELS[name]
    data = spec.data("S")
    program = spec.program_for("S")

    reference = compile_forward(program, tier, cache=False)
    native = compile_forward(program, tier, cache=False, backend="cython")
    _skip_unless_native(native.report, f"{name} forward/{tier}")

    expected = reference.compiled(**_copy_data(data))
    actual = native.compiled(**_copy_data(data))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=_atol(spec))


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_gradient_agrees_across_backends(name, tier):
    spec = KERNELS[name]
    data = spec.data("S")

    reference = repro.grad(spec.program_for("S"), wrt=spec.wrt, optimize=tier)
    native = repro.grad(
        spec.program_for("S"), wrt=spec.wrt, optimize=tier, backend="cython"
    )
    _skip_unless_native(native.report, f"{name} grad/{tier}")

    expected = reference(**_copy_data(data))
    actual = native(**_copy_data(data))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=_atol(spec))


#: Kernels whose batched NumPy program dies inside ``np.matmul`` (a batched
#: operand meets a per-sample vector's core dimension): ROADMAP "vmap coverage".
VMAP_MATMUL_CRASHES = {"cholesky", "gramschmidt", "lu", "trmm"}


def _vmap_kernel_params():
    mark = pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason='batched matmul core-dimension mismatch in NumPy (ROADMAP "vmap coverage")',
    )
    return [pytest.param(name, marks=mark) if name in VMAP_MATMUL_CRASHES else name
            for name in KERNEL_NAMES]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", _vmap_kernel_params())
def test_vmap_agrees_across_backends(name, tier):
    spec = KERNELS[name]
    data = spec.data("S")
    program = spec.program_for("S")

    batched = _batched(data, set(program.to_sdfg().argument_arrays))
    try:
        reference = repro.vmap(program).compile(optimize=tier)
    except UnsupportedFeatureError as exc:
        # A transform limitation, not a backend property: the *reference*
        # backend cannot run this batched program either.
        pytest.skip(f"vmap does not support {name}: {exc}")
    expected = reference(**_copy_data(batched))

    native = repro.vmap(program).compile(optimize=tier, backend="cython")
    if native.backend != "cython":
        pytest.skip(f"native backend declined {name} vmap/{tier}")

    actual = native(**_copy_data(batched))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=_atol(spec))

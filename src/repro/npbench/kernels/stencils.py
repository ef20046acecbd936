"""Stencil / weather kernels (the non-vectorised category of Fig. 11).

Sequential time-step loops with in-place array updates: the program class the
paper identifies as JAX's weak spot (per-iteration functional copies, dynamic
slicing) and DaCe AD's strength (in-place gradient propagation).

``hdiff``, ``vadv`` and ``adi`` are faithful-in-structure but simplified
versions of the NPBench kernels (fewer terms per stencil); the loop/update
pattern, which determines the performance behaviour, is preserved.  Their
Figure 11 script is indexed in docs/benchmarks.md.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.baselines.jaxlike import lax
from repro.baselines.jaxlike import numpy_api as jnp
from repro.npbench.kernels.common import jax_gradient, positive, rng_for
from repro.npbench.registry import KernelSpec, register_kernel

N = repro.symbol("N")
M = repro.symbol("M")
TSTEPS = repro.symbol("TSTEPS")


def _spec(name, domain, sizes, initialize, numpy_fn, make_program, jax_fn, wrt,
          paper_speedup=None, notes=""):
    return register_kernel(KernelSpec(
        name=name, category="nonvectorized", domain=domain, sizes=sizes,
        initialize=initialize, numpy_fn=numpy_fn, make_program=make_program,
        jaxlike_grad=lambda data, wrt_name: jax_gradient(jax_fn, data, wrt_name),
        wrt=wrt, paper_speedup=paper_speedup, notes=notes,
    ))


# --------------------------------------------------------------------------- jacobi1d
def _jacobi1d_init(N, TSTEPS, seed=42):
    rng = rng_for(seed)
    return {"A": positive(rng, N), "B": positive(rng, N), "TSTEPS": TSTEPS}


def _jacobi1d_numpy(A, B, TSTEPS):
    for t in range(TSTEPS):
        B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
        A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
    return np.sum(A)


def _jacobi1d_program():
    @repro.program
    def jacobi1d(A: repro.float64[N], B: repro.float64[N], TSTEPS: repro.int64):
        for t in range(TSTEPS):
            B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
            A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
        return np.sum(A)

    return jacobi1d


def _jacobi1d_jax(A, B, TSTEPS):
    def body(carry, _):
        A, B = carry
        inner_b = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
        B = lax.dynamic_update_slice(B, inner_b, (1,))
        inner_a = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
        A = lax.dynamic_update_slice(A, inner_a, (1,))
        return (A, B), None

    (A, B), _ = lax.scan(body, (A, B), length=TSTEPS)
    return jnp.sum(A)


_spec("jacobi1d", "stencil", {"S": {"N": 16, "TSTEPS": 3}, "paper": {"N": 4000, "TSTEPS": 100}},
      _jacobi1d_init, _jacobi1d_numpy, _jacobi1d_program, _jacobi1d_jax, wrt="A",
      paper_speedup=1.21)


# --------------------------------------------------------------------------- jacobi2d
def _jacobi2d_init(N, TSTEPS, seed=42):
    rng = rng_for(seed)
    return {"A": positive(rng, N, N), "B": positive(rng, N, N), "TSTEPS": TSTEPS}


def _jacobi2d_numpy(A, B, TSTEPS):
    for t in range(TSTEPS):
        B[1:-1, 1:-1] = 0.2 * (A[1:-1, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:]
                               + A[2:, 1:-1] + A[:-2, 1:-1])
        A[1:-1, 1:-1] = 0.2 * (B[1:-1, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:]
                               + B[2:, 1:-1] + B[:-2, 1:-1])
    return np.sum(A)


def _jacobi2d_program():
    @repro.program
    def jacobi2d(A: repro.float64[N, N], B: repro.float64[N, N], TSTEPS: repro.int64):
        for t in range(TSTEPS):
            B[1:-1, 1:-1] = 0.2 * (A[1:-1, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:]
                                   + A[2:, 1:-1] + A[:-2, 1:-1])
            A[1:-1, 1:-1] = 0.2 * (B[1:-1, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:]
                                   + B[2:, 1:-1] + B[:-2, 1:-1])
        return np.sum(A)

    return jacobi2d


def _jacobi2d_jax(A, B, TSTEPS):
    def body(carry, _):
        A, B = carry
        inner_b = 0.2 * (A[1:-1, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:]
                         + A[2:, 1:-1] + A[:-2, 1:-1])
        B = lax.dynamic_update_slice(B, inner_b, (1, 1))
        inner_a = 0.2 * (B[1:-1, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:]
                         + B[2:, 1:-1] + B[:-2, 1:-1])
        A = lax.dynamic_update_slice(A, inner_a, (1, 1))
        return (A, B), None

    (A, B), _ = lax.scan(body, (A, B), length=TSTEPS)
    return jnp.sum(A)


_spec("jacobi2d", "stencil", {"S": {"N": 10, "TSTEPS": 3}, "paper": {"N": 280, "TSTEPS": 50}},
      _jacobi2d_init, _jacobi2d_numpy, _jacobi2d_program, _jacobi2d_jax, wrt="A",
      paper_speedup=0.85)


# --------------------------------------------------------------------------- seidel2d
def _seidel2d_init(N, TSTEPS, seed=42):
    rng = rng_for(seed)
    return {"A": positive(rng, N, N), "TSTEPS": TSTEPS}


def _seidel2d_numpy(A, TSTEPS):
    n = A.shape[0]
    for t in range(TSTEPS):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                A[i, j] = (A[i - 1, j - 1] + A[i - 1, j] + A[i - 1, j + 1]
                           + A[i, j - 1] + A[i, j] + A[i, j + 1]
                           + A[i + 1, j - 1] + A[i + 1, j] + A[i + 1, j + 1]) / 9.0
    return np.sum(A)


def _seidel2d_program():
    @repro.program
    def seidel2d(A: repro.float64[N, N], TSTEPS: repro.int64):
        for t in range(TSTEPS):
            for i in range(1, N - 1):
                for j in range(1, N - 1):
                    A[i, j] = (A[i - 1, j - 1] + A[i - 1, j] + A[i - 1, j + 1]
                               + A[i, j - 1] + A[i, j] + A[i, j + 1]
                               + A[i + 1, j - 1] + A[i + 1, j] + A[i + 1, j + 1]) / 9.0
        return np.sum(A)

    return seidel2d


def _seidel2d_jax(A, TSTEPS):
    # Gauss-Seidel updates are order-dependent, so each element is updated with
    # a dynamic slice + functional scatter, exactly as in the paper's JAX port
    # (Section V-B): one fresh [N, N] array per inner iteration.
    n = A.shape[0]

    def element_update(A, i, j):
        window = lax.dynamic_slice(A, (i - 1, j - 1), (3, 3))
        value = jnp.sum(window) / 9.0
        return lax.dynamic_update_slice(A, jnp.reshape(value, (1, 1)), (i, j))

    for t in range(int(TSTEPS)):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                A = element_update(A, i, j)
    return jnp.sum(A)


_spec("seidel2d", "stencil", {"S": {"N": 8, "TSTEPS": 2}, "paper": {"N": 60, "TSTEPS": 10}},
      _seidel2d_init, _seidel2d_numpy, _seidel2d_program, _seidel2d_jax, wrt="A",
      paper_speedup=2724.96,
      notes="case-study kernel (Section V-B); paper size is N=400, TSTEPS=100")


# --------------------------------------------------------------------------- fdtd2d
def _fdtd2d_init(N, TSTEPS, seed=42):
    rng = rng_for(seed)
    return {"ex": positive(rng, N, N), "ey": positive(rng, N, N),
            "hz": positive(rng, N, N), "TSTEPS": TSTEPS}


def _fdtd2d_numpy(ex, ey, hz, TSTEPS):
    for t in range(TSTEPS):
        ey[1:, :] = ey[1:, :] - 0.5 * (hz[1:, :] - hz[:-1, :])
        ex[:, 1:] = ex[:, 1:] - 0.5 * (hz[:, 1:] - hz[:, :-1])
        hz[:-1, :-1] = hz[:-1, :-1] - 0.7 * (ex[:-1, 1:] - ex[:-1, :-1]
                                             + ey[1:, :-1] - ey[:-1, :-1])
    return np.sum(hz)


def _fdtd2d_program():
    @repro.program
    def fdtd2d(ex: repro.float64[N, N], ey: repro.float64[N, N], hz: repro.float64[N, N],
               TSTEPS: repro.int64):
        for t in range(TSTEPS):
            ey[1:, :] = ey[1:, :] - 0.5 * (hz[1:, :] - hz[:-1, :])
            ex[:, 1:] = ex[:, 1:] - 0.5 * (hz[:, 1:] - hz[:, :-1])
            hz[:-1, :-1] = hz[:-1, :-1] - 0.7 * (ex[:-1, 1:] - ex[:-1, :-1]
                                                 + ey[1:, :-1] - ey[:-1, :-1])
        return np.sum(hz)

    return fdtd2d


def _fdtd2d_jax(ex, ey, hz, TSTEPS):
    def body(carry, _):
        ex, ey, hz = carry
        ey = lax.dynamic_update_slice(ey, ey[1:, :] - 0.5 * (hz[1:, :] - hz[:-1, :]), (1, 0))
        ex = lax.dynamic_update_slice(ex, ex[:, 1:] - 0.5 * (hz[:, 1:] - hz[:, :-1]), (0, 1))
        update = hz[:-1, :-1] - 0.7 * (ex[:-1, 1:] - ex[:-1, :-1] + ey[1:, :-1] - ey[:-1, :-1])
        hz = lax.dynamic_update_slice(hz, update, (0, 0))
        return (ex, ey, hz), None

    (ex, ey, hz), _ = lax.scan(body, (ex, ey, hz), length=TSTEPS)
    return jnp.sum(hz)


_spec("fdtd2d", "electromagnetics", {"S": {"N": 10, "TSTEPS": 3}, "paper": {"N": 200, "TSTEPS": 40}},
      _fdtd2d_init, _fdtd2d_numpy, _fdtd2d_program, _fdtd2d_jax, wrt="hz")


# --------------------------------------------------------------------------- hdiff (simplified)
def _hdiff_init(N, M, seed=42):
    rng = rng_for(seed)
    return {"in_field": positive(rng, N, M), "coeff": positive(rng, N, M)}


def _hdiff_numpy(in_field, coeff):
    lap = np.zeros_like(in_field)
    lap[1:-1, 1:-1] = 4.0 * in_field[1:-1, 1:-1] - (in_field[:-2, 1:-1] + in_field[2:, 1:-1]
                                                    + in_field[1:-1, :-2] + in_field[1:-1, 2:])
    flx = np.zeros_like(in_field)
    flx[1:-1, 1:-1] = lap[1:-1, 2:] - lap[1:-1, 1:-1]
    out = np.zeros_like(in_field)
    out[2:-2, 2:-2] = in_field[2:-2, 2:-2] - coeff[2:-2, 2:-2] * (flx[2:-2, 2:-2] - flx[2:-2, 1:-3])
    return np.sum(out)


def _hdiff_program():
    @repro.program
    def hdiff(in_field: repro.float64[N, M], coeff: repro.float64[N, M]):
        lap = np.zeros((N, M))
        lap[1:-1, 1:-1] = 4.0 * in_field[1:-1, 1:-1] - (in_field[:-2, 1:-1] + in_field[2:, 1:-1]
                                                        + in_field[1:-1, :-2] + in_field[1:-1, 2:])
        flx = np.zeros((N, M))
        flx[1:-1, 1:-1] = lap[1:-1, 2:] - lap[1:-1, 1:-1]
        out = np.zeros((N, M))
        out[2:-2, 2:-2] = in_field[2:-2, 2:-2] - coeff[2:-2, 2:-2] * (flx[2:-2, 2:-2] - flx[2:-2, 1:-3])
        return np.sum(out)

    return hdiff


def _hdiff_jax(in_field, coeff):
    lap_inner = 4.0 * in_field[1:-1, 1:-1] - (in_field[:-2, 1:-1] + in_field[2:, 1:-1]
                                              + in_field[1:-1, :-2] + in_field[1:-1, 2:])
    lap = lax.dynamic_update_slice(jnp.zeros_like(in_field), lap_inner, (1, 1))
    flx_inner = lap[1:-1, 2:] - lap[1:-1, 1:-1]
    flx = lax.dynamic_update_slice(jnp.zeros_like(in_field), flx_inner, (1, 1))
    out_inner = in_field[2:-2, 2:-2] - coeff[2:-2, 2:-2] * (flx[2:-2, 2:-2] - flx[2:-2, 1:-3])
    out = lax.dynamic_update_slice(jnp.zeros_like(in_field), out_inner, (2, 2))
    return jnp.sum(out)


_spec("hdiff", "weather", {"S": {"N": 12, "M": 14}, "paper": {"N": 256, "M": 256}},
      _hdiff_init, _hdiff_numpy, _hdiff_program, _hdiff_jax, wrt="in_field",
      paper_speedup=0.64,
      notes="simplified horizontal-diffusion stencil (single flux direction)")


# --------------------------------------------------------------------------- vadv (simplified)
def _vadv_init(N, M, seed=42):
    rng = rng_for(seed)
    return {"utens_stage": positive(rng, N, M), "u_stage": positive(rng, N, M),
            "wcon": positive(rng, N, M), "u_pos": positive(rng, N, M)}


def _vadv_numpy(utens_stage, u_stage, wcon, u_pos):
    n = utens_stage.shape[0]
    ccol = np.zeros_like(utens_stage)
    dcol = np.zeros_like(utens_stage)
    for k in range(1, n - 1):
        gav = -0.25 * (wcon[k + 1, :] + wcon[k, :])
        cs = gav * 0.5
        ccol[k, :] = gav * 0.5
        correction = cs * (u_stage[k - 1, :] - u_stage[k, :])
        dcol[k, :] = utens_stage[k, :] + correction
        divided = dcol[k, :] / (1.0 + ccol[k, :] * ccol[k - 1, :])
        ccol[k, :] = ccol[k, :] * divided
    out = u_pos + ccol * dcol
    return np.sum(out)


def _vadv_program():
    @repro.program
    def vadv(utens_stage: repro.float64[N, M], u_stage: repro.float64[N, M],
             wcon: repro.float64[N, M], u_pos: repro.float64[N, M]):
        ccol = np.zeros((N, M))
        dcol = np.zeros((N, M))
        for k in range(1, N - 1):
            gav = -0.25 * (wcon[k + 1, :] + wcon[k, :])
            cs = gav * 0.5
            ccol[k, :] = gav * 0.5
            correction = cs * (u_stage[k - 1, :] - u_stage[k, :])
            dcol[k, :] = utens_stage[k, :] + correction
            divided = dcol[k, :] / (1.0 + ccol[k, :] * ccol[k - 1, :])
            ccol[k, :] = ccol[k, :] * divided
        out = u_pos + ccol * dcol
        return np.sum(out)

    return vadv


def _vadv_jax(utens_stage, u_stage, wcon, u_pos):
    n = utens_stage.shape[0]
    ccol = jnp.zeros_like(utens_stage)
    dcol = jnp.zeros_like(utens_stage)
    for k in range(1, n - 1):
        gav = -0.25 * (wcon[k + 1, :] + wcon[k, :])
        cs = gav * 0.5
        ccol = ccol.at[k, :].set(gav * 0.5)
        correction = cs * (u_stage[k - 1, :] - u_stage[k, :])
        dcol = dcol.at[k, :].set(utens_stage[k, :] + correction)
        divided = dcol[k, :] / (1.0 + ccol[k, :] * ccol[k - 1, :])
        ccol = ccol.at[k, :].set(ccol[k, :] * divided)
    out = u_pos + ccol * dcol
    return jnp.sum(out)


_spec("vadv", "weather", {"S": {"N": 10, "M": 8}, "paper": {"N": 128, "M": 128}},
      _vadv_init, _vadv_numpy, _vadv_program, _vadv_jax, wrt="u_stage",
      paper_speedup=0.41,
      notes="simplified vertical-advection sweep (single column family, no back-substitution)")


# --------------------------------------------------------------------------- adi (simplified)
def _adi_init(N, TSTEPS, seed=42):
    rng = rng_for(seed)
    return {"u": positive(rng, N, N), "TSTEPS": TSTEPS}


def _adi_numpy(u, TSTEPS):
    n = u.shape[0]
    a = 0.25
    for t in range(TSTEPS):
        for i in range(1, n - 1):
            u[i, 1:-1] = (u[i, 1:-1] + a * (u[i - 1, 1:-1] - 2.0 * u[i, 1:-1] + u[i + 1, 1:-1])) \
                / (1.0 + 2.0 * a * u[i, 1:-1] * u[i, 1:-1])
        for j in range(1, n - 1):
            u[1:-1, j] = (u[1:-1, j] + a * (u[1:-1, j - 1] - 2.0 * u[1:-1, j] + u[1:-1, j + 1])) \
                / (1.0 + 2.0 * a * u[1:-1, j] * u[1:-1, j])
    return np.sum(u)


def _adi_program():
    @repro.program
    def adi(u: repro.float64[N, N], TSTEPS: repro.int64):
        a = 0.25
        for t in range(TSTEPS):
            for i in range(1, N - 1):
                u[i, 1:-1] = (u[i, 1:-1] + a * (u[i - 1, 1:-1] - 2.0 * u[i, 1:-1] + u[i + 1, 1:-1])) \
                    / (1.0 + 2.0 * a * u[i, 1:-1] * u[i, 1:-1])
            for j in range(1, N - 1):
                u[1:-1, j] = (u[1:-1, j] + a * (u[1:-1, j - 1] - 2.0 * u[1:-1, j] + u[1:-1, j + 1])) \
                    / (1.0 + 2.0 * a * u[1:-1, j] * u[1:-1, j])
        return np.sum(u)

    return adi


def _adi_jax(u, TSTEPS):
    n = u.shape[0]
    a = 0.25
    for t in range(int(TSTEPS)):
        for i in range(1, n - 1):
            row = (u[i, 1:-1] + a * (u[i - 1, 1:-1] - 2.0 * u[i, 1:-1] + u[i + 1, 1:-1])) \
                / (1.0 + 2.0 * a * u[i, 1:-1] * u[i, 1:-1])
            u = lax.dynamic_update_slice(u, jnp.reshape(row, (1, n - 2)), (i, 1))
        for j in range(1, n - 1):
            col = (u[1:-1, j] + a * (u[1:-1, j - 1] - 2.0 * u[1:-1, j] + u[1:-1, j + 1])) \
                / (1.0 + 2.0 * a * u[1:-1, j] * u[1:-1, j])
            u = lax.dynamic_update_slice(u, jnp.reshape(col, (n - 2, 1)), (1, j))
    return jnp.sum(u)


_spec("adi", "numerical methods", {"S": {"N": 8, "TSTEPS": 2}, "paper": {"N": 64, "TSTEPS": 10}},
      _adi_init, _adi_numpy, _adi_program, _adi_jax, wrt="u",
      paper_speedup=0.11,
      notes="simplified alternating-direction sweeps (nonlinear damping instead of the "
            "full tridiagonal solves); row/column sequential dependency preserved")


# --------------------------------------------------------------------------- smooth_chain
# A feed-forward cascade of two-point smoothing stages (a binomial filter
# written statement-per-stage, the way stencil codes compose operators).
# Every stage reads its predecessor at two *distinct* offsets, so nothing
# here fuses at O2; optimize="O3" fuses the whole cascade into one map and
# evaluates each stage once over its union window (offset-shifted hoisting)
# — the showcase for the cost-model fusion tier, measured by
# benchmarks/bench_o3_stencil_fusion.py.
def _smooth_chain_init(N, seed=42):
    rng = rng_for(seed)
    return {"A": positive(rng, N)}


def _smooth_chain_numpy(A):
    u1 = A[:-1] + A[1:]
    u2 = u1[:-1] + u1[1:]
    u3 = u2[:-1] + u2[1:]
    u4 = u3[:-1] + u3[1:]
    u5 = u4[:-1] + u4[1:]
    u6 = u5[:-1] + u5[1:]
    u7 = u6[:-1] + u6[1:]
    out = 0.00390625 * (u7[:-1] + u7[1:])
    return np.sum(out)


def _smooth_chain_program():
    @repro.program
    def smooth_chain(A: repro.float64[N]):
        u1 = A[:-1] + A[1:]
        u2 = u1[:-1] + u1[1:]
        u3 = u2[:-1] + u2[1:]
        u4 = u3[:-1] + u3[1:]
        u5 = u4[:-1] + u4[1:]
        u6 = u5[:-1] + u5[1:]
        u7 = u6[:-1] + u6[1:]
        out = 0.00390625 * (u7[:-1] + u7[1:])
        return np.sum(out)

    return smooth_chain


def _smooth_chain_jax(A):
    u = A
    for _ in range(8):
        u = u[:-1] + u[1:]
    return jnp.sum(0.00390625 * u)


_spec("smooth_chain", "stencil", {"S": {"N": 32}, "paper": {"N": 400000}},
      _smooth_chain_init, _smooth_chain_numpy, _smooth_chain_program,
      _smooth_chain_jax, wrt="A",
      notes="eight-stage binomial smoothing cascade; every stage reads two "
            "distinct offsets, so only the O3 cost-model fusion tier fuses it")

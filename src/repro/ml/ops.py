"""NumPy reference implementations of neural-network operators.

These are the "optimised library calls" that conv2d / maxpool2d / softmax
library nodes expand to in generated code, together with their adjoints used
by the AD engine.  Layout is NHWC with HWIO weights, matching the NPBench
deep-learning kernels.
"""

from __future__ import annotations

import numpy as np


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))


def conv2d(x: np.ndarray, w: np.ndarray, b=None, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D convolution (cross-correlation), NHWC input, HWIO weights."""
    x = _pad_input(x, padding)
    n, h, wd, _ = x.shape
    kh, kw, _, f = w.shape
    out_h = (h - kh) // stride + 1
    out_w = (wd - kw) // stride + 1
    out = np.zeros((n, out_h, out_w, f), dtype=np.result_type(x.dtype, w.dtype))
    for a in range(kh):
        for c in range(kw):
            window = x[:, a : a + stride * out_h : stride, c : c + stride * out_w : stride, :]
            out += np.tensordot(window, w[a, c], axes=([3], [0]))
    if b is not None and not (isinstance(b, str) and b == "None"):
        out += b
    return out


def conv2d_backward_input(gout: np.ndarray, w: np.ndarray, x_shape, stride: int = 1,
                          padding: int = 0) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input."""
    n, h, wd, c_in = x_shape
    kh, kw, _, _ = w.shape
    padded_shape = (n, h + 2 * padding, wd + 2 * padding, c_in)
    gx = np.zeros(padded_shape, dtype=gout.dtype)
    out_h, out_w = gout.shape[1], gout.shape[2]
    for a in range(kh):
        for c in range(kw):
            gx[:, a : a + stride * out_h : stride, c : c + stride * out_w : stride, :] += (
                np.tensordot(gout, w[a, c], axes=([3], [1]))
            )
    if padding:
        gx = gx[:, padding:-padding, padding:-padding, :]
    return gx


def conv2d_backward_weights(gout: np.ndarray, x: np.ndarray, w_shape, stride: int = 1,
                            padding: int = 0) -> np.ndarray:
    """Gradient of conv2d w.r.t. its weights."""
    x = _pad_input(x, padding)
    kh, kw, c_in, f = w_shape
    gw = np.zeros(w_shape, dtype=gout.dtype)
    out_h, out_w = gout.shape[1], gout.shape[2]
    for a in range(kh):
        for c in range(kw):
            window = x[:, a : a + stride * out_h : stride, c : c + stride * out_w : stride, :]
            gw[a, c] = np.tensordot(window, gout, axes=([0, 1, 2], [0, 1, 2]))
    return gw


def conv2d_backward_bias(gout: np.ndarray) -> np.ndarray:
    return np.sum(gout, axis=(0, 1, 2))


def maxpool2d(x: np.ndarray, window: int = 2) -> np.ndarray:
    """Max pooling with square window and stride equal to the window size."""
    n, h, w, c = x.shape
    out_h, out_w = h // window, w // window
    trimmed = x[:, : out_h * window, : out_w * window, :]
    reshaped = trimmed.reshape(n, out_h, window, out_w, window, c)
    return reshaped.max(axis=(2, 4))


def maxpool2d_backward(gout: np.ndarray, x: np.ndarray, window: int = 2) -> np.ndarray:
    """Gradient of max pooling: routed to the (elementwise) maxima."""
    n, h, w, c = x.shape
    out_h, out_w = h // window, w // window
    trimmed = x[:, : out_h * window, : out_w * window, :]
    reshaped = trimmed.reshape(n, out_h, window, out_w, window, c)
    maxima = reshaped.max(axis=(2, 4), keepdims=True)
    mask = (reshaped == maxima)
    counts = mask.sum(axis=(2, 4), keepdims=True)
    grad = mask * (gout[:, :, None, :, None, :] / counts)
    gx = np.zeros_like(x, dtype=gout.dtype)
    gx[:, : out_h * window, : out_w * window, :] = grad.reshape(
        n, out_h * window, out_w * window, c
    )
    return gx


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def softmax_backward(gout: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of softmax given its output ``y``."""
    inner = np.sum(gout * y, axis=axis, keepdims=True)
    return y * (gout - inner)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)

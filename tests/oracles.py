"""Test-only reference implementations the CNN engine is checked against.

`numeric_gradient` is a central finite difference. The `im2col_*` and
`indices_*` functions are the engine's earlier backward passes: the
convolution input gradient from an im2col copy of the zero-padded output
gradient against the flipped filters, and max-pool scatters by
`np.indices` fancy indexing. Each takes the layer it stands in for as
`self`, so a test can install it as that layer class's `backward`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def numeric_gradient(fn, x, eps=1e-5):
    """Central finite-difference gradient of scalar fn at array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn()
        x[idx] = orig - eps
        fm = fn()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def im2col_conv1d_backward(self, gy, need_gx=True):
    n, c, length, lout = self._dims
    k = self.kernel
    o = self.w.shape[0]
    gy_mat = np.ascontiguousarray(gy.transpose(0, 2, 1)).reshape(n * lout, o)
    self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
    self.gb[...] = gy.sum(axis=(0, 2))
    gyp = np.pad(gy, ((0, 0), (0, 0), (k - 1, k - 1)))
    gyw = sliding_window_view(gyp, k, axis=2)  # (N,O,Lin,K)
    gycol = np.ascontiguousarray(gyw.transpose(0, 2, 1, 3)).reshape(n * length, o * k)
    wflip = np.ascontiguousarray(self.w[:, :, ::-1].transpose(1, 0, 2)).reshape(c, o * k)
    return (gycol @ wflip.T).reshape(n, length, c).transpose(0, 2, 1)


def im2col_conv2d_backward(self, gy, need_gx=True):
    n, c, h, wdt = self._dims
    k, p = self.kernel, self.pad
    o = self.w.shape[0]
    gy_mat = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(n * h * wdt, o)
    self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
    self.gb[...] = gy.sum(axis=(0, 2, 3))
    gyp = np.pad(gy, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    gyw = sliding_window_view(gyp, (k, k), axis=(2, 3))  # (N,O,H+2p,W+2p,K,K)
    hp, wp = h + 2 * p, wdt + 2 * p
    gycol = np.ascontiguousarray(gyw.transpose(0, 2, 3, 1, 4, 5)).reshape(n * hp * wp, o * k * k)
    wflip = np.ascontiguousarray(self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(
        c, o * k * k
    )
    gxp = (gycol @ wflip.T).reshape(n, hp, wp, c).transpose(0, 3, 1, 2)
    return gxp[:, :, p : p + h, p : p + wdt]


def indices_maxpool1d_backward(self, gy, need_gx=True):
    n, c, length = self._in_shape
    lout = gy.shape[2]
    gx = np.zeros((n, c, lout, self.pool))
    idx = np.indices((n, c, lout))
    gx[idx[0], idx[1], idx[2], self._arg[..., 0]] = gy
    out = np.zeros(self._in_shape)
    out[:, :, : lout * self.pool] = gx.reshape(n, c, lout * self.pool)
    return out


def indices_maxpool2d_backward(self, gy, need_gx=True):
    n, c, h, w = self._in_shape
    p = self.pool
    ho, wo = gy.shape[2], gy.shape[3]
    gx = np.zeros((n, c, ho, wo, p * p))
    idx = np.indices((n, c, ho, wo))
    gx[idx[0], idx[1], idx[2], idx[3], self._arg[..., 0]] = gy
    gx = gx.reshape(n, c, ho, wo, p, p).transpose(0, 1, 2, 4, 3, 5)
    out = np.zeros(self._in_shape)
    out[:, :, : ho * p, : wo * p] = gx.reshape(n, c, ho * p, wo * p)
    return out
